"""Multi-scale gated feed-forward network.

Two 1x1 expansions from C to gamma*C channels.  The gating path runs the
first expansion through a 3x3x3 convolution and GELU; the multi-scale path
feeds the second expansion through parallel 3x3 convolutions with dilation 2
and 3 (padding equal to dilation) and sums them.  The elementwise product of
the two paths projects back to C channels with a final 1x1 convolution.

Also provides the plain two-layer pointwise FFN that replaces MSFN when its
ablation switch is off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import Conv2dWeights, Conv3dWeights, conv2d, conv3d_on_features, init_conv2d, init_conv3d
from .tensor import Tensor, add, gelu, mul_elementwise

GAMMA = 2  # channel expansion of both 1x1 expansions, gamma in the paper


@dataclass
class MsfnWeights:
    expand_a: Conv2dWeights  # 1x1, C -> gamma*C (gating path)
    spectral: Conv3dWeights  # 3x3x3 over (channel, H, W) on the gating path
    expand_b: Conv2dWeights  # 1x1, C -> gamma*C (shared by both dilated paths)
    dil2: Conv2dWeights  # 3x3, dilation 2, gamma*C -> gamma*C
    dil3: Conv2dWeights  # 3x3, dilation 3, gamma*C -> gamma*C
    project: Conv2dWeights  # 1x1, gamma*C -> C


@dataclass
class FfnWeights:
    """MSFN ablation stand-in: 1x1 expand, GELU, 1x1 project."""

    expand: Conv2dWeights  # 1x1, C -> gamma*C
    project: Conv2dWeights  # 1x1, gamma*C -> C


def init_msfn(rng: np.random.Generator, c: int, *, spectral_3d: bool = True) -> MsfnWeights:
    gc = GAMMA * c
    return MsfnWeights(
        expand_a=init_conv2d(rng, c, gc, 1),
        spectral=init_conv3d(rng, 1, 1, (3, 3, 3) if spectral_3d else (1, 3, 3)),
        expand_b=init_conv2d(rng, c, gc, 1),
        dil2=init_conv2d(rng, gc, gc, 3, dilation=2),
        dil3=init_conv2d(rng, gc, gc, 3, dilation=3),
        project=init_conv2d(rng, gc, c, 1),
    )


def init_ffn(rng: np.random.Generator, c: int) -> FfnWeights:
    gc = GAMMA * c
    return FfnWeights(expand=init_conv2d(rng, c, gc, 1), project=init_conv2d(rng, gc, c, 1))


def gating(x: Tensor, w: MsfnWeights) -> Tensor:
    """GELU(conv3x3x3(expand_a(x))) * (dil2(expand_b(x)) + dil3(expand_b(x)))."""
    a = gelu(conv3d_on_features(conv2d(x, w.expand_a), w.spectral))
    b = conv2d(x, w.expand_b)
    d = add(conv2d(b, w.dil2), conv2d(b, w.dil3))
    return mul_elementwise(a, d)


def msfn_forward(x: Tensor, w: MsfnWeights) -> Tensor:
    return conv2d(gating(x, w), w.project)


def ffn_forward(x: Tensor, w: FfnWeights) -> Tensor:
    return conv2d(gelu(conv2d(x, w.expand)), w.project)
