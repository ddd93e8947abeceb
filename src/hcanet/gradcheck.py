"""Finite-difference validation of the autodiff engine.

Central differences in float64 with step 1e-3, compared against backward()
per parameter.  The relative error for a parameter is

    max_i |a_i - n_i| / max(max|a|, max|n|, 1e-12)

over the checked coordinates.  Small cases are checked exhaustively; block
and network presets sample coordinates to stay fast.
"""

from __future__ import annotations

import dataclasses
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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }


def check_gradients(
    fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    *,
    step: float = FD_STEP,
    tolerance: float = TOLERANCE,
    max_coords: int | None = None,
    seed: int = 0,
) -> GradCheckResult:
    """Compare backward() against central differences for every parameter.

    fn computes a scalar loss from the tensors in params (by closure); it is
    re-evaluated with individual coordinates nudged by +-step.  Parameter data
    must be float64: float32 FD at step 1e-3 loses most of its digits.
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
                flat[i] = orig + step
                fp = fn().item()
                flat[i] = orig - step
                fm = fn().item()
                flat[i] = orig
                numeric[k] = (fp - fm) / (2.0 * step)
        ana = analytic.reshape(-1)[idx]
        scale = max(np.max(np.abs(ana), initial=0.0), np.max(np.abs(numeric), initial=0.0), 1e-12)
        rel = float(np.max(np.abs(ana - numeric), initial=0.0) / scale)
        checks.append(ParamCheck(name, rel, int(idx.size)))
    return GradCheckResult(checks, max(c.rel_err for c in checks), tolerance)


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


def preset_ops(seed: int = 0) -> GradCheckResult:
    """Exhaustive FD check of every differentiable primitive."""
    from . import nn
    from . import tensor as T

    rng = np.random.Generator(np.random.Philox(seed))

    def leaf(*shape, offset=0.0):
        return Tensor(rng.standard_normal(shape) + offset, requires_grad=True, dtype=np.float64)

    parts = []

    def case(name, out_fn, params, max_coords=None):
        res = check_gradients(_weighted_loss(out_fn, rng), params, max_coords=max_coords, seed=seed)
        for c in res.checks:
            c.name = f"{name}.{c.name}"
        parts.append(res)

    with T.use_dtype(np.float64):
        a, b = leaf(3, 4), leaf(3, 4)
        case("add", lambda: T.add(a, b), {"a": a, "b": b})
        case("sub", lambda: T.sub(a, b), {"a": a, "b": b})
        case("mul", lambda: T.mul_elementwise(a, b), {"a": a, "b": b})
        case("scale", lambda: T.scale(a, -1.7), {"a": a})
        case("add_scalar", lambda: T.add_scalar(a, 0.31), {"a": a})
        s = Tensor(np.asarray(1.3), requires_grad=True, dtype=np.float64)
        case("scale_by", lambda: T.scale_by(a, s), {"a": a, "s": s})
        r = leaf(3, 4, offset=3.0)
        case("reciprocal", lambda: T.reciprocal(r), {"x": r})
        aw = Tensor(np.where(rng.standard_normal((3, 4)) < 0, -1.0, 1.0) * (0.2 + rng.random((3, 4))),
                    requires_grad=True, dtype=np.float64)
        case("abs", lambda: T.abs_(aw), {"x": aw})
        case("sum_all", lambda: T.sum_all(a), {"a": a})
        case("mean_all", lambda: T.mean_all(a), {"a": a})
        m1, m2 = leaf(3, 4), leaf(4, 2)
        case("matmul2d", lambda: T.matmul(m1, m2), {"a": m1, "b": m2})
        b1, b2 = leaf(2, 3, 4), leaf(2, 4, 5)
        case("matmul3d", lambda: T.matmul(b1, b2), {"a": b1, "b": b2})
        sx = leaf(4, 5)
        case("softmax", lambda: T.softmax(sx, axis=-1), {"x": sx})
        sx0 = leaf(4, 5)
        case("softmax_ax0", lambda: T.softmax(sx0, axis=0), {"x": sx0})
        gx = leaf(3, 4)
        case("gelu", lambda: T.gelu(gx), {"x": gx})
        vx = leaf(2, 3, 4)
        case("reshape", lambda: T.reshape(vx, (3, 8)), {"x": vx})
        case("permute", lambda: T.permute(vx, (2, 0, 1)), {"x": vx})
        c1, c2 = leaf(2, 3), leaf(2, 2)
        case("concat", lambda: T.concat([c1, c2], axis=1), {"a": c1, "b": c2})
        sl = leaf(4, 6)
        case("slice", lambda: T.slice_(sl, (slice(1, 3), slice(None, None, 2))), {"x": sl})

        x = leaf(2, 4, 6, 6)
        w = nn.init_conv2d(rng, 4, 3, 3)
        case("conv2d_3x3", lambda: nn.conv2d(x, w),
             {"x": x, "kernel": w.kernel})
        ws = nn.init_conv2d(rng, 4, 3, 3, stride=2)
        case("conv2d_s2", lambda: nn.conv2d(x, ws), {"x": x, "kernel": ws.kernel})
        wd2 = nn.init_conv2d(rng, 4, 4, 3, dilation=2)
        case("conv2d_d2", lambda: nn.conv2d(x, wd2), {"x": x, "kernel": wd2.kernel})
        wd3 = nn.init_conv2d(rng, 4, 4, 3, dilation=3)
        case("conv2d_d3", lambda: nn.conv2d(x, wd3), {"x": x, "kernel": wd3.kernel})
        wg = nn.init_conv2d(rng, 4, 6, 3, groups=2)
        case("conv2d_g2", lambda: nn.conv2d(x, wg), {"x": x, "kernel": wg.kernel})
        wdw = nn.init_conv2d(rng, 4, 4, 3, groups=4)
        case("conv2d_dw", lambda: nn.conv2d(x, wdw), {"x": x, "kernel": wdw.kernel})
        w1 = nn.init_conv2d(rng, 4, 5, 1)
        case("conv2d_1x1", lambda: nn.conv2d(x, w1), {"x": x, "kernel": w1.kernel})
        x3 = leaf(2, 1, 4, 5, 5)
        w3 = nn.init_conv3d(rng, 1, 1)
        case("conv3d_1to1", lambda: nn.conv3d(x3, w3), {"x": x3, "kernel": w3.kernel})
        w3m = nn.init_conv3d(rng, 1, 3)
        case("conv3d_stem", lambda: nn.conv3d(x3, w3m), {"x": x3, "kernel": w3m.kernel})
        wt = nn.init_conv_t2d(rng, 4, 2)
        case("conv_t2d", lambda: nn.conv_transpose2d(x, wt), {"x": x, "kernel": wt.kernel})
        ln = nn.init_layer_norm(4)
        ln.gamma.data += rng.standard_normal(4) * 0.1
        ln.beta.data += rng.standard_normal(4) * 0.1
        case("layer_norm", lambda: nn.layer_norm(x, ln),
             {"x": x, "gamma": ln.gamma, "beta": ln.beta})
        case("channel_shuffle", lambda: nn.channel_shuffle(x, 2), {"x": x})
    return _merge(parts)


def preset_cafm(seed: int = 0) -> GradCheckResult:
    """Sampled FD check through a full attention-plus-convolution module."""
    from . import tensor as T
    from .cafm import cafm_forward, init_cafm

    rng = np.random.Generator(np.random.Philox(seed))
    with T.use_dtype(np.float64):
        x = Tensor(rng.standard_normal((1, 8, 3, 4)), requires_grad=True, dtype=np.float64)
        w = init_cafm(rng, 8, groups=4)
        params = {"x": x}
        params.update(dict(w.named_params()))
        return check_gradients(_weighted_loss(lambda: cafm_forward(x, w), rng), params, max_coords=24, seed=seed)


def preset_msfn(seed: int = 0) -> GradCheckResult:
    """Sampled FD check through the gated feed-forward module."""
    from . import tensor as T
    from .msfn import init_msfn, msfn_forward

    rng = np.random.Generator(np.random.Philox(seed))
    with T.use_dtype(np.float64):
        x = Tensor(rng.standard_normal((1, 6, 5, 5)), requires_grad=True, dtype=np.float64)
        w = init_msfn(rng, 6, expansion=2)
        params = {"x": x}
        params.update(dict(w.named_params()))
        return check_gradients(_weighted_loss(lambda: msfn_forward(x, w), rng), params, max_coords=24, seed=seed)


def preset_net(seed: int = 0) -> GradCheckResult:
    """Sparse FD check through a small end-to-end network."""
    from . import tensor as T
    from .network import HcaNet, NetworkConfig

    rng = np.random.Generator(np.random.Philox(seed))
    cfg = NetworkConfig(bands=4, base_width=8, levels=2, blocks_per_level=(1, 1),
                        refinement_blocks=1, shuffle_groups=4)
    with T.use_dtype(np.float64):
        net = HcaNet(cfg, seed=seed)
        x = Tensor(rng.standard_normal((1, 4, 8, 8)) * 0.3, requires_grad=True, dtype=np.float64)
        params = {"x": x}
        params.update(dict(net.named_params()))
        return check_gradients(_weighted_loss(lambda: net.forward(x), rng), params, max_coords=3, seed=seed)


PRESETS: dict[str, Callable[[int], GradCheckResult]] = {
    "ops": preset_ops,
    "cafm": preset_cafm,
    "msfn": preset_msfn,
    "net": preset_net,
}
