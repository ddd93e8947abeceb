"""Span tracer for the traced benchmark run.

Each layer is timed from outside: the tracer replaces a function by a timing
wrapper in the namespace where its caller looks the name up (for example
``nn._conv_gemm`` or ``network.msfn_forward``), so no source file of the package
changes.  Ops also get their backward timed: the wrapper swaps the ``vjp`` of
the tape node it just created for a timed one.

Spans stay in memory as ``[name, start, end, parent, path]`` rows and are
written out once, when the run ends.  ``path`` is the module path of the
weights an op or module was called with (``enc0.b0.cafm.local``), looked up by
the identity of the weight tensors in ``HcaNet.named_params()``; weight-free
ops inherit the path of the span that encloses them.
"""

from __future__ import annotations

import json
import time
import weakref

# Ops: forward and backward are timed separately (``<op>.fwd_s``, ``<op>.bwd_s``).
OPS = (
    "nn.conv3d_1to1",
    "nn.conv3d_stem",
    "nn.conv1x1",
    "nn.conv_dw",
    "nn.conv_gemm",
    "nn.conv_t2d",
    "nn.layer_norm",
    "tensor.matmul",
    "tensor.softmax",
    "tensor.gelu",
)
# Modules (inclusive forward time) and the other layers (``<name>_s``).
MODULES = ("cafm.local", "cafm.global", "cafm.attention", "msfn", "network.forward")
OTHERS = (
    "loss.total_loss",
    "train.adam_step",
    "train.clip_gradients",
    "data.patch",
    "noise.apply_noise",
    "metrics.evaluate",
    "metrics.ssim_per_band",
    "network.save",
    "network.load",
    "data.load_cube",
    "data.save_cube",
)
CLI_SPAN = "cli.main"
BACKWARD_SPAN = "tensor.backward"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for op in OPS:
        units[f"{op}.fwd_s"] = "s"
        units[f"{op}.bwd_s"] = "s"
        units[f"{op}.calls"] = "count"
    units["tensor.backward_s"] = "s"
    units["tensor.backward.calls"] = "count"
    units["tensor.backward.self_s"] = "s"
    units["tensor.other.fwd_s"] = "s"
    for name in MODULES + OTHERS:
        units[f"{name}_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["cli.self_s"] = "s"
    return units


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._names: dict[int, str] = {}  # id(weight tensor) -> parameter name
        self._net = None  # weakref to the network the names belong to

    def begin(self, name: str, path: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        if path is None and parent >= 0:
            path = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, path])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    # -- module paths -------------------------------------------------------

    def register(self, net) -> None:
        """Map the weight tensors of ``net`` to their parameter names."""
        if self._net is not None and self._net() is net:
            return
        self._names = {id(t): name for name, t in net.named_params()}
        self._net = weakref.ref(net)

    def path(self, tensor, drop: int = 1, suffix: str = "") -> str | None:
        name = self._names.get(id(tensor))
        if name is None:
            return None
        return ".".join(name.split(".")[:-drop]) + suffix

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over the run; self time is a span minus its children."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _, _ in spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1

        op_fwd = {f"{op}.fwd" for op in OPS}
        fwd_in_forward = 0.0
        for name, start, end, parent, _ in spans:
            if name not in op_fwd:
                continue
            while parent >= 0 and spans[parent][0] != "network.forward":
                parent = spans[parent][3]
            if parent >= 0:
                fwd_in_forward += end - start

        out: dict[str, float] = {}
        for op in OPS:
            out[f"{op}.fwd_s"] = total.get(f"{op}.fwd", 0.0)
            out[f"{op}.bwd_s"] = total.get(f"{op}.bwd", 0.0)
            out[f"{op}.calls"] = calls.get(f"{op}.fwd", 0)
        out["tensor.backward_s"] = total.get(BACKWARD_SPAN, 0.0)
        out["tensor.backward.calls"] = calls.get(BACKWARD_SPAN, 0)
        out["tensor.backward.self_s"] = sum(
            (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == BACKWARD_SPAN
        )
        out["tensor.other.fwd_s"] = total.get("network.forward", 0.0) - fwd_in_forward
        for name in MODULES + OTHERS:
            out[f"{name}_s"] = total.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        out["cli.self_s"] = sum(
            (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == CLI_SPAN
        )
        return out

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON, times in seconds from ``origin``."""
        rows = [
            [name, round(start - origin, 7), round(end - origin, 7), parent, p]
            for name, start, end, parent, p in self.spans
        ]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "path"], "spans": rows}, f,
                      separators=(",", ":"))


# -- wrappers ------------------------------------------------------------------


def _span(tracer: Tracer, fn, name: str, path_of=None):
    """Time every call of fn as one span."""

    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, path_of(*args) if path_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _op(tracer: Tracer, fn, name_of, path_of=None):
    """Time an op's forward call and, through its tape node, its backward."""

    def wrapper(*args, **kwargs):
        name = name_of(*args)
        path = path_of(*args) if path_of else None
        idx = tracer.begin(name + ".fwd", path)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        node = out.node
        if node is not None:
            vjp, bwd_path = node.vjp, tracer.spans[idx][4]

            def timed_vjp(g):
                j = tracer.begin(name + ".bwd", bwd_path)
                try:
                    return vjp(g)
                finally:
                    tracer.end(j)

            node.vjp = timed_vjp
        return out

    return wrapper


def install(tracer: Tracer):
    """Patch every traced layer; returns a function that undoes the patches."""
    from hcanet import cafm, cli, data, metrics, msfn, network, nn, tensor, train

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def weights_path(x, w, *rest):
        return tracer.path(w.kernel)

    def conv3d_kind(x, w):
        return "nn.conv3d_1to1" if w.kernel.shape[:2] == (1, 1) else "nn.conv3d_stem"

    # ops, at every lookup site the model's forward uses; nn.conv2d picks one
    # of three code paths, each looked up in nn
    conv2d_paths = {"_conv1x1": "nn.conv1x1", "_conv_depthwise": "nn.conv_dw", "_conv_gemm": "nn.conv_gemm"}
    for attr, name in conv2d_paths.items():
        patch(nn, attr, _op(tracer, getattr(nn, attr), lambda *a, name=name: name, weights_path))
    conv3d, load_cube = nn.conv3d, data.load_cube
    for mod in (nn, network):
        patch(mod, "conv3d", _op(tracer, conv3d, conv3d_kind, weights_path))
    patch(nn, "conv_transpose2d", _op(tracer, nn.conv_transpose2d, lambda *a: "nn.conv_t2d", weights_path))
    patch(network, "layer_norm",
          _op(tracer, nn.layer_norm, lambda *a: "nn.layer_norm", lambda x, w, *r: tracer.path(w.gamma)))
    patch(cafm, "matmul", _op(tracer, tensor.matmul, lambda *a: "tensor.matmul"))
    patch(cafm, "softmax", _op(tracer, tensor.softmax, lambda *a: "tensor.softmax"))
    patch(msfn, "gelu", _op(tracer, tensor.gelu, lambda *a: "tensor.gelu"))

    # modules
    patch(cafm, "local_branch", _span(tracer, cafm.local_branch, "cafm.local",
                                      lambda y, w: tracer.path(w.alpha, suffix=".local")))
    patch(cafm, "global_branch", _span(tracer, cafm.global_branch, "cafm.global",
                                       lambda y, w: tracer.path(w.alpha, suffix=".global")))
    patch(cafm, "attention_map", _span(tracer, cafm.attention_map, "cafm.attention",
                                       lambda q, k, a: tracer.path(a, suffix=".attention")))
    patch(network, "msfn_forward", _span(tracer, network.msfn_forward, "msfn",
                                         lambda x, w: tracer.path(w.project.kernel, drop=2)))
    forward = network.HcaNet.forward

    def traced_forward(net, x):
        tracer.register(net)
        idx = tracer.begin("network.forward", "net")
        try:
            return forward(net, x)
        finally:
            tracer.end(idx)

    patch(network.HcaNet, "forward", traced_forward)

    # engine and the layers around the model
    patch(tensor, "backward", _span(tracer, tensor.backward, BACKWARD_SPAN))
    patch(train, "total_loss", _span(tracer, train.total_loss, "loss.total_loss"))
    patch(train, "adam_step", _span(tracer, train.adam_step, "train.adam_step"))
    patch(train, "clip_gradients", _span(tracer, train.clip_gradients, "train.clip_gradients"))
    patch(data.PatchDataset, "patch", _span(tracer, data.PatchDataset.patch, "data.patch"))
    for mod in (train, cli):
        patch(mod, "apply_noise", _span(tracer, mod.apply_noise, "noise.apply_noise"))
        patch(mod, "evaluate", _span(tracer, mod.evaluate, "metrics.evaluate"))
    patch(metrics, "ssim_per_band", _span(tracer, metrics.ssim_per_band, "metrics.ssim_per_band"))
    patch(network.HcaNet, "save", _span(tracer, network.HcaNet.save, "network.save"))
    patch(network.HcaNet, "load", staticmethod(_span(tracer, network.HcaNet.load, "network.load")))
    for mod in (data, cli):
        patch(mod, "load_cube", _span(tracer, load_cube, "data.load_cube"))
    patch(cli, "save_cube", _span(tracer, data.save_cube, "data.save_cube"))

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
