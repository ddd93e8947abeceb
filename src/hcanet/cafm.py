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
from typing import Iterator

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
    default_dtype,
    matmul,
    permute,
    reciprocal,
    reshape,
    scale_by,
    slice_,
    softmax,
)


@dataclass
class CafmWeights:
    qkv_pointwise: Conv2dWeights  # 1x1, C -> 3C
    qkv_depthwise: Conv2dWeights  # 3x3 depthwise over the 3C channels
    out_pointwise: Conv2dWeights  # 1x1, C -> C
    alpha: Tensor  # 0-d temperature, init 1.0
    shuffle_groups: int = 4
    # None disables the local branch (ablation); both set otherwise.
    local_pointwise: Conv2dWeights | None = None
    local_spectral: Conv3dWeights | None = None

    @property
    def local_enabled(self) -> bool:
        return self.local_pointwise is not None

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        if self.local_pointwise is not None:
            yield from self.local_pointwise.named_params(prefix + "local_pw.")
            yield from self.local_spectral.named_params(prefix + "local_3d.")
        yield from self.qkv_pointwise.named_params(prefix + "qkv_pw.")
        yield from self.qkv_depthwise.named_params(prefix + "qkv_dw.")
        yield from self.out_pointwise.named_params(prefix + "out_pw.")
        yield prefix + "alpha", self.alpha


def init_cafm(
    rng: np.random.Generator,
    c: int,
    *,
    groups: int = 4,
    local_branch: bool = True,
    spectral_3d: bool = True,
    dtype=None,
) -> CafmWeights:
    """Build CAFM weights for block width c.

    spectral_3d=False degrades the local 3x3x3 kernel to depth extent 1,
    which is a weight-tied per-channel 2-D 3x3 convolution (the 3-D-conv
    ablation keeps the channel contract but loses spectral mixing).
    """
    if c % groups:
        raise ShapeError(f"block width {c} not divisible by shuffle groups {groups}")
    dtype = dtype or default_dtype()
    local_pw = local_3d = None
    if local_branch:
        local_pw = init_conv2d(rng, c, c, 1, dtype=dtype)
        local_3d = init_conv3d(rng, 1, 1, (3, 3, 3) if spectral_3d else (1, 3, 3), dtype=dtype)
    return CafmWeights(
        qkv_pointwise=init_conv2d(rng, c, 3 * c, 1, dtype=dtype),
        qkv_depthwise=init_conv2d(rng, 3 * c, 3 * c, 3, groups=3 * c, dtype=dtype),
        out_pointwise=init_conv2d(rng, c, c, 1, dtype=dtype),
        alpha=Tensor(np.asarray(1.0), requires_grad=True, dtype=dtype),
        shuffle_groups=groups,
        local_pointwise=local_pw,
        local_spectral=local_3d,
    )


def local_branch(y: Tensor, w: CafmWeights) -> Tensor:
    """F_conv: 1x1 conv, channel shuffle, 3x3x3 conv.  No residual here."""
    if w.local_pointwise is None or w.local_spectral is None:
        raise ContractError("local branch is disabled in these weights")
    z = conv2d(y, w.local_pointwise)
    z = channel_shuffle(z, w.shuffle_groups)
    return conv3d_on_features(z, w.local_spectral)


def attention_map(q_hat: Tensor, k_hat: Tensor, alpha) -> Tensor:
    """A = softmax((K_hat Q_hat) / alpha) over the last axis.

    q_hat: (..., HW, C), k_hat: (..., C, HW) -> (..., C, C); each row of A
    sums to 1, so V_hat @ A mixes value channels convexly.
    """
    logits = matmul(k_hat, q_hat)
    if isinstance(alpha, Tensor):
        if alpha.item() <= 0:
            raise ContractError(f"attention temperature must be positive, got {alpha.item()}")
        logits = scale_by(logits, reciprocal(alpha))
    else:
        if alpha <= 0:
            raise ContractError(f"attention temperature must be positive, got {alpha}")
        logits = scale_by(logits, reciprocal(Tensor(np.asarray(alpha), dtype=logits.dtype)))
    return softmax(logits, axis=-1)


def global_branch(y: Tensor, w: CafmWeights) -> Tensor:
    """F_att: channel attention over Q/K/V plus the residual input."""
    n, c, h, wd = y.shape
    qkv = conv2d(conv2d(y, w.qkv_pointwise), w.qkv_depthwise)  # (N, 3C, H, W)
    q = reshape(slice_(qkv, (slice(None), slice(0, c))), (n, c, h * wd))
    k = reshape(slice_(qkv, (slice(None), slice(c, 2 * c))), (n, c, h * wd))
    v = reshape(slice_(qkv, (slice(None), slice(2 * c, 3 * c))), (n, c, h * wd))
    q_hat = permute(q, (0, 2, 1))  # (N, HW, C)
    v_hat = permute(v, (0, 2, 1))  # (N, HW, C)
    a = attention_map(q_hat, k, w.alpha)  # (N, C, C)
    att = matmul(v_hat, a)  # (N, HW, C)
    att = reshape(permute(att, (0, 2, 1)), (n, c, h, wd))
    return add(conv2d(att, w.out_pointwise), y)


def cafm_forward(y: Tensor, w: CafmWeights) -> Tensor:
    """F_out = F_att + F_conv (global branch alone when local is disabled)."""
    out = global_branch(y, w)
    if w.local_enabled:
        out = add(out, local_branch(y, w))
    return out
