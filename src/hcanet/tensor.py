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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_DEFAULT_DTYPE = contextvars.ContextVar("default_dtype", default=np.float32)
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)
_CHECK_FINITE = contextvars.ContextVar("check_finite", default=False)

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))


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
    """A dense row-major float array, optionally tracked on the tape.

    ``data`` is immutable by convention after construction; only ``grad`` is
    written to (by ``backward``) and ``data`` (by the optimizer, which owns
    the parameters single-writer).
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


def add_scalar(x: Tensor, s: float) -> Tensor:
    return Tensor._from_op(x.data + s, "add_scalar", (x,), lambda g: (g,))


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


def gelu(x: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) with the standard normal CDF (erf form)."""
    # imported on first use, so that importing the package does not pay for scipy.special
    from scipy.special import erf

    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * _INV_SQRT2))

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * xd * xd)
        return (g * (cdf + xd * pdf),)

    return Tensor._from_op(xd * cdf, "gelu", (x,), vjp)


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
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for ndim {x.ndim}")
    inv = np.argsort(axes)
    return Tensor._from_op(
        np.ascontiguousarray(np.transpose(x.data, axes)), "permute", (x,), lambda g: (np.transpose(g, inv),)
    )


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
