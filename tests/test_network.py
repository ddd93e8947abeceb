import dataclasses
import hashlib
import io
import json
import struct

import numpy as np
import pytest

from hcanet import records
from hcanet.cafm import CafmWeights
from hcanet.errors import ConfigError, FormatError, ShapeError
from hcanet.msfn import FfnWeights, MsfnWeights
from hcanet.network import HcaNet, NetworkConfig, desk_config, paper_config
from hcanet.nn import Conv2dWeights, conv2d
from hcanet.tensor import Tensor, backward, no_grad, sum_all


def tiny_config(**kw):
    base = dict(bands=4, base_width=8, blocks_per_level=(1, 1), refinement_blocks=1)
    base.update(kw)
    return NetworkConfig(**base)


class TestConfig:
    def test_levels_follow_blocks_per_level(self):
        assert tiny_config(blocks_per_level=(1, 2, 1)).levels == 3
        with pytest.raises(ConfigError):
            tiny_config(blocks_per_level=())

    def test_width_group_divisibility(self):
        with pytest.raises(ConfigError):
            NetworkConfig(bands=4, base_width=6)  # 4 shuffle groups

    @pytest.mark.parametrize("kw", [dict(refinement_blocks=1.5), dict(blocks_per_level=(1, 2.0)), dict(bands=0),
                                    dict(base_width=0), dict(bands=True), dict(base_width=np.int64(8)),
                                    dict(refinement_blocks=False), dict(blocks_per_level=(1, True)),
                                    dict(msfn_enabled="false"), dict(local_branch=0), dict(conv3d_enabled=None),
                                    dict(blocks_per_level=2), dict(blocks_per_level=[1, 1])])
    def test_non_integer_or_zero_sizes_rejected(self, kw):
        with pytest.raises(ConfigError):
            tiny_config(**kw)

    def test_json_roundtrip(self):
        cfg = tiny_config(msfn_enabled=False)
        assert records.build(NetworkConfig, json.loads(records.dumps(cfg))) == cfg

    def test_json_is_canonical(self):
        s = records.dumps(tiny_config())
        assert ": " not in s and ", " not in s
        keys = list(json.loads(s))
        assert keys == sorted(keys)


class TestForward:
    def test_residual_shape_64x64x8(self):
        net = HcaNet(desk_config(bands=8), seed=0)
        cube = np.random.default_rng(0).standard_normal((64, 64, 8)).astype(np.float32)
        assert net.denoise(cube).shape == (64, 64, 8)

    def test_zero_tail_zero_residual_and_identity(self):
        net = HcaNet(tiny_config(), seed=1)
        net.tail.kernel.data[...] = 0.0
        cube = np.random.default_rng(1).random((8, 8, 4)).astype(np.float32)
        out = net.denoise(cube)
        assert np.array_equal(out.view(np.uint32), cube.view(np.uint32))

    def test_indivisible_extent_raises(self):
        net = HcaNet(desk_config(bands=4), seed=0)  # 3 levels -> need /4
        with pytest.raises(ShapeError):
            net.denoise(np.zeros((10, 12, 4), dtype=np.float32))

    def test_band_mismatch_raises(self):
        net = HcaNet(tiny_config(), seed=0)
        with pytest.raises(ShapeError):
            net.forward(Tensor(np.zeros((1, 5, 8, 8), dtype=np.float32)))

    def test_stem_gradient_nonzero(self):
        net = HcaNet(tiny_config(), seed=2)
        x = Tensor(np.random.default_rng(2).standard_normal((1, 4, 8, 8)).astype(np.float32))
        backward(sum_all(net.forward(x)))
        assert net.stem_3d.kernel.grad is not None
        assert np.linalg.norm(net.stem_3d.kernel.grad) > 0

    def test_every_parameter_receives_gradient(self):
        net = HcaNet(tiny_config(), seed=3)
        x = Tensor(np.random.default_rng(3).standard_normal((2, 4, 8, 8)).astype(np.float32))
        loss = sum_all(net.forward(x))
        backward(loss)
        missing = [n for n, t in net.named_params() if t.grad is None]
        assert missing == []

    def test_denoise_batch_is_input_plus_residual(self):
        net = HcaNet(tiny_config(), seed=4)
        x = Tensor(np.random.default_rng(4).standard_normal((1, 4, 8, 8)).astype(np.float32))
        got = net.denoise_batch(x).data
        np.testing.assert_array_equal(got, x.data + net.forward(x).data)


class TestStem:
    @staticmethod
    def two_op_stem(net, x):
        """Float64 oracle: the direct 3-D conv loop (band padding kD // 2), then the 1x1 collapse."""
        k3 = net.stem_3d.kernel.data.astype(np.float64)
        k1 = net.stem_collapse.kernel.data.astype(np.float64)[:, :, 0, 0]
        f, _, kd, kh, kw = k3.shape
        n, b, h, w = x.shape
        xp = np.pad(x.astype(np.float64)[:, None], ((0, 0), (0, 0), (kd // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2))
        z = np.zeros((n, f, b, h, w))
        for a in range(kd):
            for i in range(kh):
                for j in range(kw):
                    z += np.einsum("of,nfdhw->nodhw", k3[:, :, a, i, j], xp[:, :, a : a + b, i : i + h, j : j + w])
        return np.einsum("oc,nchw->nohw", k1, z.reshape(n, f * b, h, w))

    @pytest.mark.parametrize("conv3d_enabled", [True, False], ids=["3x3x3", "1x3x3"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_folded_stem_matches_3d_conv_then_collapse(self, conv3d_enabled, batch):
        net = HcaNet(tiny_config(bands=6, conv3d_enabled=conv3d_enabled), seed=8)
        x = np.random.default_rng(8).standard_normal((batch, 6, 8, 12)).astype(np.float32)
        got = conv2d(Tensor(x), Conv2dWeights(net._stem_kernel())).data
        np.testing.assert_allclose(got, self.two_op_stem(net, x), rtol=0, atol=1e-5)

    def test_paper_forward_peak_memory(self):
        import tracemalloc

        net = HcaNet(paper_config(31), seed=0)
        x = Tensor(np.random.default_rng(9).random((1, 31, 64, 64)).astype(np.float32))
        with no_grad():
            net.forward(Tensor(x.data[:, :, :8, :8]))  # first-call imports stay out of the peak
            tracemalloc.start()
            try:
                net.forward(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # about 9x; a stem that holds its (1, 16, 31, 64, 64) feature volume peaks at 18x
        assert peak < 16 * x.data.nbytes


class TestParamCount:
    def test_width_doubling_quadruples(self):
        small = HcaNet(tiny_config(base_width=8), seed=0).param_count()
        big = HcaNet(tiny_config(base_width=16), seed=0).param_count()
        assert 3.5 <= big / small <= 4.5

    def test_paper_preset_budget(self):
        count = HcaNet(paper_config(31), seed=0).param_count()
        assert abs(count - 4.75e6) / 4.75e6 <= 0.15, count

    def test_count_matches_checkpoint_tensor_sum(self):
        net = HcaNet(tiny_config(), seed=5)
        assert net.param_count() == sum(t.size for _, t in net.named_params())


class TestAblation:
    def ladder(self):
        # switch-on order mirrors the ablation table: base, +local branch,
        # +3-D convs, +MSFN
        base = tiny_config(local_branch=False, conv3d_enabled=False, msfn_enabled=False)
        return [
            base,
            dataclasses.replace(base, local_branch=True),
            dataclasses.replace(base, local_branch=True, conv3d_enabled=True),
            dataclasses.replace(base, local_branch=True, conv3d_enabled=True, msfn_enabled=True),
        ]

    def test_base_structure(self):
        net = HcaNet(self.ladder()[0], seed=0)
        blk = net.enc_blocks[0][0]
        assert isinstance(blk.ffn, FfnWeights)
        assert isinstance(blk.cafm, CafmWeights) and blk.cafm.local_pw is None and blk.cafm.local_3d is None
        assert net.stem_3d.kernel.shape[2] == 1  # no spectral extent

    def test_param_count_strictly_increases(self):
        counts = [HcaNet(cfg, seed=0).param_count() for cfg in self.ladder()]
        assert counts == sorted(counts) and len(set(counts)) == 4, counts

    def test_variants_produce_distinct_outputs(self):
        x = np.random.default_rng(6).random((8, 8, 4)).astype(np.float32)
        outs = [HcaNet(cfg, seed=0).denoise(x) for cfg in self.ladder()]
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                assert not np.allclose(outs[i], outs[j])

    def test_full_config_uses_msfn(self):
        net = HcaNet(self.ladder()[3], seed=0)
        assert isinstance(net.enc_blocks[0][0].ffn, MsfnWeights)
        assert net.stem_3d.kernel.shape[2] == 3


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = HcaNet(tiny_config(), seed=8)
        p = tmp_path / "model.hcaw"
        net.save(p)
        loaded = HcaNet.load(p)
        assert loaded.config == net.config
        for (na, ta), (nb, tb) in zip(net.named_params(), loaded.named_params()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes(), na

    def test_roundtrip_preserves_outputs(self, tmp_path):
        net = HcaNet(tiny_config(), seed=9)
        p = tmp_path / "model.hcaw"
        net.save(p)
        cube = np.random.default_rng(9).random((8, 8, 4)).astype(np.float32)
        a, b = net.denoise(cube), HcaNet.load(p).denoise(cube)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.hcaw"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            HcaNet.load(p)

    def test_truncated_rejected(self, tmp_path):
        net = HcaNet(tiny_config(), seed=10)
        p = tmp_path / "model.hcaw"
        net.save(p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            HcaNet.load(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = HcaNet(tiny_config(), seed=10)
        p = tmp_path / "model.hcaw"
        net.save(p)
        p.write_bytes(p.read_bytes() + b"\x00" * 4)
        with pytest.raises(FormatError, match="implies"):
            HcaNet.load(p)

    def test_repeated_tensor_rejected(self, tmp_path):
        # a record repeated in place of another of the same size keeps the byte count
        net = HcaNet(tiny_config(), seed=10)
        params = list(net.named_params())
        i = [name for name, _ in params].index("enc0.b0.norm2.gamma")
        params[i] = ("enc0.b0.norm1.gamma", params[i][1])
        buf = io.BytesIO()
        net.named_params = lambda: iter(params)
        net._write(buf)
        with pytest.raises(FormatError, match="repeated"):
            HcaNet._read(io.BytesIO(buf.getvalue()))

    def test_header_may_omit_a_field_with_a_default(self, tmp_path):
        # the same rule as a dataset manifest: a field with a default may be left out
        net = HcaNet(NetworkConfig(bands=2, base_width=4), seed=10)
        buf = io.BytesIO()
        net._write(buf)
        raw = buf.getvalue()
        (clen,) = struct.unpack("<I", raw[8:12])
        doc = json.loads(raw[12 : 12 + clen])
        del doc["blocks_per_level"], doc["refinement_blocks"]
        head = json.dumps(doc).encode("utf-8")
        p = tmp_path / "model.hcaw"
        p.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + clen :])
        assert HcaNet.load(p).config == net.config

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        net = HcaNet(tiny_config(), seed=10)
        p = tmp_path / "model.hcaw"
        net.save(p)

        def no_draw(*a, **k):
            raise AssertionError("load drew from a Philox stream")

        monkeypatch.setattr(np.random, "Philox", no_draw)
        buf = io.BytesIO()
        HcaNet.load(p)._write(buf)
        assert buf.getvalue() == p.read_bytes()

    @pytest.mark.parametrize("config,digest,records_digest", [
        (desk_config(8), "c7f2afcfd68746921b01fcccd059008ad3d8da27db12aa61902eaccaf2622b24",
         "2975092801e7d560f507cf9b4c171544eb232dacae422d1f2609f56b240e8b9f"),
        (paper_config(31), "5c2947a7e2aa51ac7ea6705435712f4353ba9d643136814291424bc5dc2c602c",
         "b2d8945f90ace9ad5e2e4b64ae5943550c2ce99df5cc525b5964a8a51efcfe81"),
    ], ids=["desk", "paper"])
    def test_seed0_checkpoint_bytes_are_pinned(self, config, digest, records_digest):
        # pins the init stream, the parameter order and the file format at once:
        # a refactor of the layer API must leave these bytes as they are.  The
        # tensor records, everything after the config JSON, are pinned on their
        # own, so a change to the header alone shows as just that.
        buf = io.BytesIO()
        HcaNet(config, seed=0)._write(buf)
        raw = buf.getvalue()
        (clen,) = struct.unpack("<I", raw[8:12])
        assert hashlib.sha256(raw[12 + clen:]).hexdigest() == records_digest
        assert hashlib.sha256(raw).hexdigest() == digest


def test_construction_is_seed_deterministic():
    a = HcaNet(tiny_config(), seed=42)
    b = HcaNet(tiny_config(), seed=42)
    for (na, ta), (nb, tb) in zip(a.named_params(), b.named_params()):
        assert na == nb and np.array_equal(ta.data, tb.data)


def test_network_gradients_match_finite_differences():
    from hcanet.gradcheck import preset_net

    res = preset_net(seed=0)
    assert res.ok, f"worst: {res.worst()}"
