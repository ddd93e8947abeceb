"""Finite-difference validation of the autodiff engine.

Central differences in float64 with step 1e-3, compared against backward()
per parameter.  The relative error for a parameter is

    max_i |a_i - n_i| / max(max|a|, max|n|, 1e-12)

over the checked coordinates.  Small cases are checked exhaustively; block
and network presets sample coordinates to stay fast.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError
from .tensor import Tensor, backward, no_grad

FD_STEP = 1e-3
TOLERANCE = 1e-3


@dataclass
class ParamCheck:
    name: str
    rel_err: float
    checked: int


@dataclass
class GradCheckResult:
    checks: list[ParamCheck]
    max_rel_err: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tolerance

    def worst(self) -> ParamCheck:
        return max(self.checks, key=lambda c: c.rel_err)


def check_gradients(
    fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    *,
    max_coords: int | None = None,
    seed: int = 0,
) -> GradCheckResult:
    """Compare backward() against central differences for every parameter.

    fn computes a scalar loss from the tensors in params (by closure); it is
    re-evaluated with individual coordinates nudged by +-FD_STEP.  Parameter
    data must be float64: float32 FD at step 1e-3 loses most of its digits.
    """
    for name, t in params.items():
        if t.data.dtype != np.float64:
            raise ContractError(f"gradcheck parameter {name!r} must be float64, got {t.data.dtype}")
        if not t.requires_grad:
            raise ContractError(f"gradcheck parameter {name!r} has requires_grad=False")
        t.grad = None
    backward(fn())
    rng = np.random.Generator(np.random.Philox(seed))
    checks = []
    for name, t in params.items():
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        if max_coords is None or flat.size <= max_coords:
            idx = np.arange(flat.size)
        else:
            idx = rng.choice(flat.size, size=max_coords, replace=False)
        numeric = np.empty(idx.size)
        with no_grad():
            for k, i in enumerate(idx):
                orig = flat[i]
                flat[i] = orig + FD_STEP
                fp = fn().item()
                flat[i] = orig - FD_STEP
                fm = fn().item()
                flat[i] = orig
                numeric[k] = (fp - fm) / (2.0 * FD_STEP)
        ana = analytic.reshape(-1)[idx]
        scale = max(np.max(np.abs(ana), initial=0.0), np.max(np.abs(numeric), initial=0.0), 1e-12)
        rel = float(np.max(np.abs(ana - numeric), initial=0.0) / scale)
        checks.append(ParamCheck(name, rel, int(idx.size)))
    return GradCheckResult(checks, max(c.rel_err for c in checks), TOLERANCE)


def _merge(parts: list[GradCheckResult]) -> GradCheckResult:
    checks = [c for part in parts for c in part.checks]
    return GradCheckResult(checks, max(c.rel_err for c in checks), TOLERANCE)


def _weighted_loss(out_fn: Callable[[], Tensor], rng: np.random.Generator) -> Callable[[], Tensor]:
    """Reduce out_fn() to a scalar via a fixed random weighting.

    The weighting is drawn once, on the first call, so repeated FD
    evaluations see the same loss function; randomness keeps symmetric
    outputs (softmax rows, normalized maps) from hiding gradient errors.
    """
    from .tensor import mul_elementwise, sum_all

    weight: list[Tensor] = []

    def fn() -> Tensor:
        y = out_fn()
        if y.ndim == 0:
            return y
        if not weight:
            weight.append(Tensor(rng.standard_normal(y.shape), dtype=y.dtype))
        return sum_all(mul_elementwise(y, weight[0]))

    return fn


def _case_stream(seed: int, name: str) -> np.random.Generator:
    """The Philox stream of one preset_ops case, keyed by (seed, case name) as
    noise keys bands, so adding or deleting a case moves no other case's draws."""
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def preset_ops(seed: int = 0) -> GradCheckResult:
    """Exhaustive FD check of every differentiable primitive."""
    from . import nn
    from . import tensor as T

    parts = []

    def case(name, out_fn, **leaves):
        """Check out_fn(*leaves).  Each leaf is a shape, drawn N(0, 1), or a
        function of the rng that draws it; the leaves, then the loss weighting,
        come from the case's own stream."""
        rng = _case_stream(seed, name)
        params = {
            p: Tensor(spec(rng) if callable(spec) else rng.standard_normal(spec), requires_grad=True,
                      dtype=np.float64)
            for p, spec in leaves.items()
        }
        res = check_gradients(_weighted_loss(lambda: out_fn(*params.values()), rng), params, seed=seed)
        for c in res.checks:
            c.name = f"{name}.{c.name}"
        parts.append(res)

    def conv2d(**kw):
        return lambda x, k: nn.conv2d(x, nn.Conv2dWeights(k, **kw))

    m, fmap = (3, 4), (2, 4, 6, 6)
    with T.use_dtype(np.float64):
        case("add", T.add, a=m, b=m)
        case("sub", T.sub, a=m, b=m)
        case("mul", T.mul_elementwise, a=m, b=m)
        case("scale", lambda a: T.scale(a, -1.7), a=m)
        case("scale_by", T.scale_by, a=m, s=())
        case("reciprocal", T.reciprocal, x=lambda rng: rng.standard_normal(m) + 3.0)
        # |x| away from the kink at 0
        case("abs", T.abs_, x=lambda rng: np.where(rng.standard_normal(m) < 0, -1.0, 1.0) * (0.2 + rng.random(m)))
        case("sum_all", T.sum_all, a=m)
        case("mean_all", T.mean_all, a=m)
        case("matmul2d", T.matmul, a=(3, 4), b=(4, 2))
        case("matmul3d", T.matmul, a=(2, 3, 4), b=(2, 4, 5))
        case("softmax", lambda x: T.softmax(x, axis=-1), x=(4, 5))
        case("softmax_ax0", lambda x: T.softmax(x, axis=0), x=(4, 5))
        case("gelu", T.gelu, x=m)
        case("reshape", lambda x: T.reshape(x, (3, 8)), x=(2, 3, 4))
        case("permute", lambda x: T.permute(x, (2, 0, 1)), x=(2, 3, 4))
        case("concat", lambda a, b: T.concat([a, b], axis=1), a=(2, 3), b=(2, 2))
        case("slice", lambda x: T.slice_(x, (slice(1, 3), slice(None, None, 2))), x=(4, 6))
        case("conv2d_3x3", conv2d(), x=fmap, kernel=(3, 4, 3, 3))
        case("conv2d_s2", conv2d(stride=2), x=fmap, kernel=(3, 4, 3, 3))
        case("conv2d_d2", conv2d(dilation=2), x=fmap, kernel=(4, 4, 3, 3))
        case("conv2d_d3", conv2d(dilation=3), x=fmap, kernel=(4, 4, 3, 3))
        case("conv2d_dw", conv2d(), x=fmap, kernel=(4, 1, 3, 3))
        case("conv2d_1x1", conv2d(), x=fmap, kernel=(5, 4, 1, 1))
        case("conv3d_1to1", lambda x, k: nn.conv3d(x, nn.Conv3dWeights(k)), x=(2, 1, 4, 5, 5), kernel=(1, 1, 3, 3, 3))
        case("conv_t2d", lambda x, k: nn.conv_transpose2d(x, nn.ConvT2dWeights(k)), x=fmap, kernel=(4, 2, 2, 2))
        case("layer_norm", lambda x, g, b: nn.layer_norm(x, nn.LayerNormWeights(g, b)), x=fmap,
             gamma=lambda rng: 1.0 + 0.1 * rng.standard_normal(4), beta=lambda rng: 0.1 * rng.standard_normal(4))
        case("channel_shuffle", lambda x: nn.channel_shuffle(x, 2), x=fmap)
    return _merge(parts)


def preset_cafm(seed: int = 0) -> GradCheckResult:
    """Sampled FD check through a full attention-plus-convolution module."""
    from . import tensor as T
    from .cafm import cafm_forward, init_cafm
    from .nn import named_params

    rng = np.random.Generator(np.random.Philox(seed))
    with T.use_dtype(np.float64):
        x = Tensor(rng.standard_normal((1, 8, 3, 4)), requires_grad=True, dtype=np.float64)
        w = init_cafm(rng, 8)
        params = {"x": x}
        params.update(named_params(w))
        return check_gradients(_weighted_loss(lambda: cafm_forward(x, w), rng), params, max_coords=24, seed=seed)


def preset_msfn(seed: int = 0) -> GradCheckResult:
    """Sampled FD check through the gated feed-forward module."""
    from . import tensor as T
    from .msfn import init_msfn, msfn_forward
    from .nn import named_params

    rng = np.random.Generator(np.random.Philox(seed))
    with T.use_dtype(np.float64):
        x = Tensor(rng.standard_normal((1, 6, 5, 5)), requires_grad=True, dtype=np.float64)
        w = init_msfn(rng, 6)
        params = {"x": x}
        params.update(named_params(w))
        return check_gradients(_weighted_loss(lambda: msfn_forward(x, w), rng), params, max_coords=24, seed=seed)


def preset_net(seed: int = 0) -> GradCheckResult:
    """Sparse FD check through a small end-to-end network."""
    from . import tensor as T
    from .network import HcaNet, NetworkConfig

    rng = np.random.Generator(np.random.Philox(seed))
    cfg = NetworkConfig(bands=4, base_width=8, blocks_per_level=(1, 1), refinement_blocks=1)
    with T.use_dtype(np.float64):
        net = HcaNet(cfg, seed=seed)
        x = Tensor(rng.standard_normal((1, 4, 8, 8)) * 0.3, requires_grad=True, dtype=np.float64)
        params = {"x": x}
        params.update(net.named_params())
        return check_gradients(_weighted_loss(lambda: net.forward(x), rng), params, max_coords=3, seed=seed)


PRESETS: dict[str, Callable[[int], GradCheckResult]] = {
    "ops": preset_ops,
    "cafm": preset_cafm,
    "msfn": preset_msfn,
    "net": preset_net,
}
