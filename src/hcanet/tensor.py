"""Dense N-D tensors with reverse-mode automatic differentiation.

The engine records a dynamic tape: every operation that touches a tensor
requiring gradients produces an output tensor carrying a tape node (parent
references plus a vector-Jacobian product).  ``backward`` on a scalar walks
the tape once in reverse topological order, accumulates gradients, writes
them onto leaf tensors, and frees the graph.

Arithmetic runs in float32 by default; ``use_dtype(numpy.float64)`` switches
newly created leaves to float64 for finite-difference gradient checking.
That switch, ``no_grad`` and ``debug_numerics`` live in ``contextvars``, so
each holds only in the thread (or context) that entered it.
Every op is a plain function (``add``, ``scale``, ``scale_by``, ...); ``Tensor``
overloads no operators.  Broadcasting is deliberately not supported beyond
scaling by a 0-d tensor (``scale_by``): mismatched shapes raise ``ShapeError``
instead of silently expanding.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_DEFAULT_DTYPE = contextvars.ContextVar("default_dtype", default=np.float32)
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
_CHECK_FINITE = contextvars.ContextVar("check_finite", default=False)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# elements per tile of the tiled elementwise kernels (GELU here, the
# per-channel tap loops in nn): a tile and its buffers stay in cache
_CHUNK = 1 << 16

# erf comes from fixed tables of Chebyshev fits, one per range and result
# dtype, in the manner of W. J. Cody, "Rational Chebyshev approximations for
# the error function", Math. Comp. 23 (1969).  They were fitted once, offline;
# nothing is fitted at import.
#
# erf(z) = z * P(z*z) on |z| <= 1.  Coefficients of P, highest power first,
# per result dtype: fits in u = z*z on [0, 1] of degree 6 (relative error
# 1.2e-9, far below a float32 ulp) and 11 (7e-18).  Being odd, the form gives
# erf(0) = 0 exactly.
_ERF_SMALL = {
    np.dtype(np.float32): (
        7.875875062685488e-05, -0.000801686428716587, 0.005189087423433974, -0.026854212010626412,
        0.11283594715160218, -0.37612626666720334, 1.1283791658483509,
    ),
    np.dtype(np.float64): (
        -7.795898827002142e-10, 1.3720064546777686e-08, -1.6208483801871705e-07, 1.6447424703317362e-06,
        -1.492473690741966e-05, 0.00012055294904839707, -0.0008548325975389692, 0.0052239776071164225,
        -0.02686617064323777, 0.11283791670945006, -0.37612638903183543, 1.1283791670955126,
    ),
}
# erfc(a) = t * exp(-a*a + R(t)) with t = 1 / (1 + a/2), for a >= 1 (the
# form of Numerical Recipes' erfcc).  Coefficients of R, highest power first,
# per result dtype: fits on t in [0, 2/3] of degree 10 (absolute error
# 1.1e-9) and 20 (1.7e-16).  Evaluated in float64 for either dtype: |z| > 1
# is rare in the network (1 to 2 elements in 10^4).
_ERFC_TAIL = {
    np.dtype(np.float32): (
        0.31565165470825374, -1.1154067496978828, 1.423607608980811, -0.6985739834621065, 0.16072228658921528,
        -0.1992693237064662, -0.07832731646569514, 0.08272101537154121, 0.37502550370387755,
        0.9999995811257948, -1.2655121223341204,
    ),
    np.dtype(np.float64): (
        -0.8800805785508374, 5.059083530908647, -12.04789044975256, 14.017836774337583, -4.860717501562028,
        -7.957577739316067, 12.386551524489473, -8.360383619837673, 3.7970780280056755, -1.5717334728696069,
        0.32021553820586596, 0.05506135688590475, 0.14254517477382758, 0.028539063539473285,
        -0.0917162648199664, -0.1437543848414361, -0.08593734196760523, 0.0833333298674579,
        0.3750000000400511, 0.9999999999998169, -1.2655121234846454,
    ),
}
# P in the GELU's variable v = x*x: where v <= 2, Phi(x) = 1/2 + x * S(v)
# with S(v) = P(v/2) / (2 sqrt(2))
_CDF_SMALL = {
    dt: tuple(c / (2.0 * math.sqrt(2.0) * 2.0**k) for k, c in zip(range(len(p) - 1, -1, -1), p))
    for dt, p in _ERF_SMALL.items()
}


@contextlib.contextmanager
def _setting(var: contextvars.ContextVar, value):
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


@contextlib.contextmanager
def use_dtype(dtype):
    """Temporarily switch the default dtype (float32/float64) of new leaves."""
    if dtype not in (np.float32, np.float64):
        raise ContractError(f"unsupported dtype {dtype!r}")
    with _setting(_DEFAULT_DTYPE, dtype):
        yield


def no_grad():
    """Disable tape recording (inference mode)."""
    return _setting(_GRAD_ENABLED, False)


def debug_numerics():
    """Assert that every forward result is finite (debug builds only)."""
    return _setting(_CHECK_FINITE, True)


class _Node:
    """One recorded operation: parent tensors plus its backward rule."""

    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op: str, parents: tuple, vjp: Callable):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tensor:
    """A float array, optionally tracked on the tape.

    ``data`` may be a strided view that shares memory with another tensor's
    (``permute`` returns one), so an op must not rely on its layout or write
    it in place.  ``data`` is immutable by convention after construction;
    only ``grad`` is written to (by ``backward``) and a parameter's ``data``
    (by the optimizer, which owns the parameters single-writer).
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE.get())
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, op: str, parents: tuple["Tensor", ...], vjp: Callable) -> "Tensor":
        if _CHECK_FINITE.get() and not np.all(np.isfinite(data)):
            raise NumericsError(f"non-finite values produced by op {op!r}")
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out.node = _Node(op, parents, vjp)
        else:
            out.requires_grad = False
            out.node = None
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        backward(self)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return Tensor._from_op(a.data + b.data, "add", (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return Tensor._from_op(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul_elementwise")
    ad, bd = a.data, b.data
    return Tensor._from_op(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, s: float) -> Tensor:
    return Tensor._from_op(x.data * s, "scale", (x,), lambda g: (g * s,))


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply a tensor by a 0-d tensor (the one permitted broadcast)."""
    if s.ndim != 0:
        raise ShapeError(f"scale_by expects a scalar tensor, got shape {s.shape}")
    xd, sd = x.data, s.data
    return Tensor._from_op(
        xd * sd, "scale_by", (x, s), lambda g: (g * sd, np.asarray(np.sum(g * xd), dtype=xd.dtype))
    )


def reciprocal(x: Tensor) -> Tensor:
    y = 1.0 / x.data
    return Tensor._from_op(y, "reciprocal", (x,), lambda g: (-g * y * y,))


def abs_(x: Tensor) -> Tensor:
    xd = x.data
    return Tensor._from_op(np.abs(xd), "abs", (x,), lambda g: (g * np.sign(xd),))


# -- reductions ----------------------------------------------------------------


def sum_all(x: Tensor) -> Tensor:
    shape, dt = x.shape, x.data.dtype
    return Tensor._from_op(
        np.asarray(np.sum(x.data), dtype=dt), "sum", (x,), lambda g: (np.broadcast_to(g, shape).astype(dt, copy=False),)
    )


def mean_all(x: Tensor) -> Tensor:
    n = x.size
    shape, dt = x.shape, x.data.dtype
    return Tensor._from_op(
        np.asarray(np.mean(x.data), dtype=dt),
        "mean",
        (x,),
        lambda g: (np.broadcast_to(g / n, shape).astype(dt, copy=False),),
    )


# -- linear algebra ------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 2-D operands or batched 3-D operands (no broadcast)."""
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        if ad.shape[1] != bd.shape[0]:
            raise ShapeError(f"matmul: inner dims {ad.shape} x {bd.shape}")
    elif ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
            raise ShapeError(f"matmul: batched dims {ad.shape} x {bd.shape}")
    else:
        raise ShapeError(f"matmul: expected 2-D or 3-D pairs, got {ad.shape} x {bd.shape}")

    def vjp(g):
        return (g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g)

    return Tensor._from_op(ad @ bd, "matmul", (a, b), vjp)


# -- nonlinearities ------------------------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return Tensor._from_op(y, "softmax", (x,), vjp)


def _poly(coefs, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Horner's rule in place: out = sum(coefs[i] * u**(n - 1 - i))."""
    np.multiply(u, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= u
    out += coefs[-1]
    return out


def _erfc_tail(a: np.ndarray, dtype) -> np.ndarray:
    """erfc(a) for float64 a >= 1, to the accuracy of a ``dtype`` result (see _ERFC_TAIL)."""
    t = 1.0 / (1.0 + 0.5 * a)
    r = _poly(_ERFC_TAIL[dtype], t, np.empty_like(t))
    r -= a * a
    return t * np.exp(r)


def _erf(z: np.ndarray) -> np.ndarray:
    """erf of a float32 or float64 array from the tables the GELU kernel uses."""
    z64 = z.astype(np.float64)
    u = z64 * z64
    out = z64 * _poly(_ERF_SMALL[z.dtype], np.minimum(u, 1.0), np.empty_like(u))
    tail = u > 1.0
    out[tail] = np.copysign(1.0 - _erfc_tail(np.abs(z64[tail]), z.dtype), z64[tail])
    return out.astype(z.dtype)


def _gelu_forward(xd: np.ndarray, keep_cdf: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """x * Phi(x) tile by tile, and Phi(x) itself when ``keep_cdf``.

    Where |z| = |x|/sqrt(2) <= 1, Phi(x) = 1/2 + x * S(x*x) (``_CDF_SMALL``).
    Each tile of _CHUNK // 2 elements is widened to float64, because for
    negative x the sum 1/2 + x * S cancels; the result is rounded once, to
    within an ulp of the exact GELU.  Only a tile that holds some |z| > 1 pays
    for more: its large elements are gathered and take Phi from the erfc form,
    Phi(-|x|) = erfc(|z|) / 2, which keeps the relative accuracy of the left
    tail.
    """
    s = _CDF_SMALL[xd.dtype]
    flat = xd.reshape(-1)
    out = np.empty_like(flat)
    cdf = np.empty_like(flat) if keep_cdf else None
    tile = _CHUNK // 2  # float64 elements: the bytes of a _CHUNK float32 tile
    m = min(tile, flat.size)
    xbuf, vbuf, obuf = np.empty(m), np.empty(m), np.empty(m)
    for lo in range(0, flat.size, tile):
        hi = min(lo + tile, flat.size)
        xt, v, o = xbuf[: hi - lo], vbuf[: hi - lo], obuf[: hi - lo]
        xt[...] = flat[lo:hi]
        np.multiply(xt, xt, out=v)
        tail = None
        if not v.max() <= 2.0:  # some |z| > 1, or a NaN
            tail = np.flatnonzero(v > 2.0)
            np.minimum(v, 2.0, out=v)
        _poly(s, v, o)
        o *= xt
        o += 0.5
        if tail is not None:
            xb = xt[tail]
            q = 0.5 * _erfc_tail(np.abs(xb) * _INV_SQRT2, xd.dtype)
            o[tail] = np.where(xb < 0.0, q, 1.0 - q)
        if cdf is not None:
            cdf[lo:hi] = o
        o *= xt
        out[lo:hi] = o
    shape = xd.shape
    return out.reshape(shape), None if cdf is None else cdf.reshape(shape)


def _gelu_vjp(xd: np.ndarray, cdf: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g * (Phi(x) + x * phi(x)), in place on one buffer.

    Not tiled: the backward pass runs on training patches, whose maps fit in
    cache, and on them this beats the tiled loop's per-tile overhead.
    """
    b = np.multiply(xd, xd)
    b *= -0.5
    np.exp(b, out=b)
    b *= _INV_SQRT2PI
    b *= xd
    b += cdf
    b *= g
    return b


def gelu(x: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) with the standard normal CDF (erf form).

    The forward pass is one fused walk over cache-sized tiles, with erf from
    the coefficient tables above (``_gelu_forward``), so no scipy is needed.
    Phi(x) is kept for the backward pass only when the op is recorded on the
    tape.
    """
    xd = x.data
    y, cdf = _gelu_forward(xd, keep_cdf=_GRAD_ENABLED.get() and x.requires_grad)
    return Tensor._from_op(y, "gelu", (x,), lambda g: (_gelu_vjp(xd, cdf, g),))


# -- rearrangement -------------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape
    return Tensor._from_op(
        np.ascontiguousarray(x.data).reshape(shape), "reshape", (x,), lambda g: (g.reshape(old),)
    )


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Axes reordered as a view, with no copy (``reshape`` copies when it must)."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for ndim {x.ndim}")
    inv = np.argsort(axes)
    return Tensor._from_op(np.transpose(x.data, axes), "permute", (x,), lambda g: (np.transpose(g, inv),))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: empty input")
    nd = ts[0].ndim
    for t in ts[1:]:
        if t.ndim != nd:
            raise ShapeError("concat: rank mismatch")
        for ax in range(nd):
            if ax != axis % nd and t.shape[ax] != ts[0].shape[ax]:
                raise ShapeError(f"concat: extent mismatch on axis {ax}: {t.shape} vs {ts[0].shape}")
    axis = axis % nd
    splits = np.cumsum([t.shape[axis] for t in ts])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._from_op(np.concatenate([t.data for t in ts], axis=axis), "concat", tuple(ts), vjp)


def slice_(x: Tensor, key: tuple) -> Tensor:
    """Basic slicing (slices/ints per axis); backward zero-embeds the gradient."""
    for k in key:
        if not isinstance(k, slice) and not isinstance(k, int):
            raise ShapeError("slice_: only basic slices and ints supported")
    shape, dt = x.shape, x.data.dtype

    def vjp(g):
        gx = np.zeros(shape, dtype=dt)
        gx[key] = g
        return (gx,)

    return Tensor._from_op(np.ascontiguousarray(x.data[key]), "slice", (x,), vjp)


# -- backward ------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; every reachable recorded op exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for p in t.node.parents:
                if id(p) not in seen and (p.node is not None or p.requires_grad):
                    stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requiring leaf.

    The loss must be a 0-d tensor produced by recorded operations.  Interior
    nodes do not retain gradients; the tape is freed once the walk finishes.
    """
    if loss.ndim != 0:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward on a tensor that requires no gradients")

    order = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.node is None:
            t.grad = g if t.grad is None else t.grad + g
            continue
        for p, pg in zip(t.node.parents, t.node.vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            pg = np.asarray(pg, dtype=p.data.dtype)
            if pg.shape != p.shape:  # vjp bug guard
                raise ShapeError(f"vjp of {t.node.op} returned {pg.shape} for parent {p.shape}")
            acc = grads.get(id(p))
            grads[id(p)] = pg if acc is None else acc + pg
    for t in order:  # free the tape
        t.node = None
