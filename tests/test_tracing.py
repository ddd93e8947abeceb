"""The traced benchmark's per-layer wrappers still reach every conv code path."""

import os
import sys

import numpy as np

from hcanet.network import HcaNet, desk_config
from hcanet.tensor import Tensor, backward, sum_all

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_conv_op_records_forward_and_backward_spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
    finally:
        sys.path.remove(PERFBENCH)
    tracer = layers.Tracer()
    undo = layers.install(tracer)
    try:
        net = HcaNet(desk_config(bands=8), seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 8, 16, 16)).astype(np.float32))
        backward(sum_all(net.forward(x)))
    finally:
        undo()
    names = {span[0] for span in tracer.spans}
    for op in ("nn.conv3d_1to1", "nn.conv_dw", "nn.conv_gemm", "nn.conv1x1", "nn.conv_t2d"):
        assert f"{op}.fwd" in names and f"{op}.bwd" in names, op
    # the stem is one dense conv whose kernel is built per call from two parameters, so
    # it has no parameter name of its own and its spans carry the network's path
    assert [span[0] for span in tracer.spans if span[4] == "net" and span[0].startswith("nn.")] == [
        "nn.conv_gemm.fwd", "nn.conv_gemm.bwd"]
    # the strided downsample is a plain conv2d call and still lands in nn._conv_gemm
    assert ["nn.conv_gemm.fwd", "down0"] in [[span[0], span[4]] for span in tracer.spans]
    # the per-layer view reads module paths off parameter names: CAFM's branches and MSFN
    paths = {(span[0], span[4]) for span in tracer.spans}
    for module, path in (("cafm.local", "enc0.b0.cafm.local"), ("cafm.global", "enc0.b0.cafm.global"),
                         ("cafm.attention", "enc0.b0.cafm.attention"), ("msfn", "enc0.b0.ffn")):
        assert (module, path) in paths, module
