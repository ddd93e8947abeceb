"""U-shaped denoising network of CAMixing blocks.

The stem's parameters are a 3x3x3 conv that lifts every band into base_width
features and a 1x1 conv that collapses those base_width * B maps into
base_width channels.  No bias or nonlinearity sits between them, so the forward
runs the pair as one 3x3 conv from B bands to base_width channels, its kernel
rebuilt from both parameters on every call.  An encoder-decoder of CAMixing
blocks (CAFM then MSFN, each behind a pre-norm residual) follows and processes
features at widths base_width * 2^level, skip connections concatenate encoder
features into the decoder and fuse with 1x1 convolutions, and a 3x3 tail
emits a residual map with one channel per band.  The denoised cube is
input + residual; nothing is clipped here.

Checkpoints: magic "HCAW", u32 version, length-prefixed canonical-JSON
NetworkConfig, then per-tensor records (length-prefixed name, u32 rank and
extents, raw little-endian f32 data).  Reload is bit-exact.  It builds the
network from its shapes alone, drawing no initial values, and checks the record
bytes that the config implies against the bytes in the file before it reads
any tensor, so a corrupt config cannot allocate a huge network; the block
count is bounded by the file's size before the build, so it cannot spend
long building a deep one either.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import asdict, dataclass
from typing import BinaryIO, Iterator

import numpy as np

from . import nn
from .cafm import CafmWeights, cafm_forward, init_cafm
from .errors import ConfigError, FormatError, ShapeError
from .msfn import FfnWeights, MsfnWeights, ffn_forward, init_ffn, init_msfn, msfn_forward
from .nn import (
    Conv2dWeights,
    ConvT2dWeights,
    Conv3dWeights,
    LayerNormWeights,
    conv2d,
    conv3d,  # not called here; kept because the traced benchmark patches network.conv3d
    init_conv2d,
    init_conv3d,
    init_conv_t2d,
    init_layer_norm,
    layer_norm,
)
from .tensor import Tensor, add, concat, matmul, no_grad, permute, reshape, slice_

CHECKPOINT_MAGIC = b"HCAW"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetworkConfig:
    bands: int
    base_width: int = 16
    levels: int = 4
    blocks_per_level: tuple[int, ...] = (2, 2, 2, 2)
    refinement_blocks: int = 2
    shuffle_groups: int = 4
    gamma: int = 2
    norm_enabled: bool = True
    local_branch: bool = True
    conv3d_enabled: bool = True
    msfn_enabled: bool = True

    def __post_init__(self):
        counts = (self.bands, self.base_width, self.levels, self.shuffle_groups, self.gamma, self.refinement_blocks)
        # a stored config is outside input: a float count would fail deep inside the build
        if not all(isinstance(v, int) for v in counts + tuple(self.blocks_per_level)):
            raise ConfigError(f"widths and counts must be integers, got {self}")
        if min(self.bands, self.base_width, self.shuffle_groups) < 1:
            raise ConfigError(f"bands, base_width and shuffle_groups must be positive, got {self}")
        if self.levels < 1 or len(self.blocks_per_level) != self.levels:
            raise ConfigError(
                f"blocks_per_level has {len(self.blocks_per_level)} entries for {self.levels} levels"
            )
        if self.base_width % self.shuffle_groups:
            raise ConfigError(
                f"base_width {self.base_width} not divisible by shuffle_groups {self.shuffle_groups}"
            )
        if self.gamma < 1:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if any(b < 1 for b in self.blocks_per_level) or self.refinement_blocks < 0:
            raise ConfigError("block counts must be positive (refinement may be 0)")

    def width(self, level: int) -> int:
        return self.base_width * (1 << level)

    def to_json(self) -> str:
        d = asdict(self)
        d["blocks_per_level"] = list(self.blocks_per_level)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "NetworkConfig":
        try:
            d = json.loads(text)
            d["blocks_per_level"] = tuple(d["blocks_per_level"])
            return NetworkConfig(**d)
        except (ValueError, TypeError, KeyError, ConfigError) as e:
            raise FormatError(f"bad NetworkConfig JSON: {e}") from e


def paper_config(bands: int = 31) -> NetworkConfig:
    """Full-size preset; parameter count lands near the 4.75M budget at 31 bands."""
    return NetworkConfig(bands=bands)


def desk_config(bands: int = 8) -> NetworkConfig:
    """Small preset for tests and toy training runs."""
    return NetworkConfig(
        bands=bands, base_width=16, levels=3, blocks_per_level=(1, 1, 1), refinement_blocks=1
    )


@dataclass
class BlockWeights:
    """One CAMixing block: pre-norm CAFM residual, then pre-norm FFN residual."""

    cafm: CafmWeights
    ffn: MsfnWeights | FfnWeights
    norm1: LayerNormWeights | None = None
    norm2: LayerNormWeights | None = None

    def named_params(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        if self.norm1 is not None:
            yield from self.norm1.named_params(prefix + "norm1.")
        yield from self.cafm.named_params(prefix + "cafm.")
        if self.norm2 is not None:
            yield from self.norm2.named_params(prefix + "norm2.")
        yield from self.ffn.named_params(prefix + "ffn.")


class _Blank:
    """Stands in for the init ``Generator`` when a checkpoint is loaded: it draws nothing.

    Every parameter comes out as a read-only view of one zero, so a network
    built from it has each parameter's name and shape at a cost that does not
    grow with their sizes; ``HcaNet._read`` then gives each tensor its values.
    """

    def uniform(self, low, high, size):
        return np.broadcast_to(np.zeros((), np.float32), size)


def _init_norm(rng, c: int) -> LayerNormWeights:
    if isinstance(rng, _Blank):  # keep a blank network free of per-channel arrays too
        return LayerNormWeights(*(Tensor(rng.uniform(0, 0, (c,)), requires_grad=True) for _ in range(2)))
    return init_layer_norm(c)


def _init_block(rng: np.random.Generator, cfg: NetworkConfig, c: int) -> BlockWeights:
    norm1 = _init_norm(rng, c) if cfg.norm_enabled else None
    cafm = init_cafm(
        rng,
        c,
        groups=cfg.shuffle_groups,
        local_branch=cfg.local_branch,
        spectral_3d=cfg.conv3d_enabled,
    )
    norm2 = _init_norm(rng, c) if cfg.norm_enabled else None
    if cfg.msfn_enabled:
        ffn = init_msfn(rng, c, expansion=cfg.gamma, spectral_3d=cfg.conv3d_enabled)
    else:
        ffn = init_ffn(rng, c, expansion=cfg.gamma)
    return BlockWeights(cafm=cafm, ffn=ffn, norm1=norm1, norm2=norm2)


def _block_forward(x: Tensor, blk: BlockWeights) -> Tensor:
    h = layer_norm(x, blk.norm1) if blk.norm1 is not None else x
    x = add(x, cafm_forward(h, blk.cafm))
    h = layer_norm(x, blk.norm2) if blk.norm2 is not None else x
    if isinstance(blk.ffn, MsfnWeights):
        return add(x, msfn_forward(h, blk.ffn))
    return add(x, ffn_forward(h, blk.ffn))


class HcaNet:
    """Weights plus forward logic; construction is deterministic in (config, seed)."""

    def __init__(self, config: NetworkConfig, seed: int = 0):
        self._build(config, np.random.Generator(np.random.Philox(seed)))

    def _build(self, config: NetworkConfig, rng: np.random.Generator | _Blank) -> None:
        self.config = cfg = config
        c0, L = cfg.base_width, cfg.levels
        kd = (3, 3, 3) if cfg.conv3d_enabled else (1, 3, 3)
        self.stem_3d: Conv3dWeights = init_conv3d(rng, 1, c0, kd)
        self.stem_collapse: Conv2dWeights = init_conv2d(rng, c0 * cfg.bands, c0, 1)
        self.enc_blocks: list[list[BlockWeights]] = []
        self.downs: list[Conv2dWeights] = []
        for lvl in range(L - 1):
            c = cfg.width(lvl)
            self.enc_blocks.append([_init_block(rng, cfg, c) for _ in range(cfg.blocks_per_level[lvl])])
            self.downs.append(init_conv2d(rng, c, 2 * c, 3, stride=2))
        cb = cfg.width(L - 1)
        self.bottleneck: list[BlockWeights] = [
            _init_block(rng, cfg, cb) for _ in range(cfg.blocks_per_level[L - 1])
        ]
        self.ups: list[ConvT2dWeights] = []
        self.skip_fuse: list[Conv2dWeights] = []
        self.dec_blocks: list[list[BlockWeights]] = []
        for lvl in range(L - 2, -1, -1):
            c = cfg.width(lvl)
            self.ups.append(init_conv_t2d(rng, 2 * c, c))
            self.skip_fuse.append(init_conv2d(rng, 2 * c, c, 1))
            self.dec_blocks.append([_init_block(rng, cfg, c) for _ in range(cfg.blocks_per_level[lvl])])
        self.refine: list[BlockWeights] = [
            _init_block(rng, cfg, c0) for _ in range(cfg.refinement_blocks)
        ]
        self.tail: Conv2dWeights = init_conv2d(rng, c0, cfg.bands, 3)

    # -- parameters ---------------------------------------------------------

    def named_params(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.stem_3d.named_params("stem_3d.")
        yield from self.stem_collapse.named_params("stem_collapse.")
        for lvl, blocks in enumerate(self.enc_blocks):
            for i, blk in enumerate(blocks):
                yield from blk.named_params(f"enc{lvl}.b{i}.")
            yield from self.downs[lvl].named_params(f"down{lvl}.")
        for i, blk in enumerate(self.bottleneck):
            yield from blk.named_params(f"mid.b{i}.")
        for d, blocks in enumerate(self.dec_blocks):
            yield from self.ups[d].named_params(f"up{d}.")
            yield from self.skip_fuse[d].named_params(f"fuse{d}.")
            for i, blk in enumerate(blocks):
                yield from blk.named_params(f"dec{d}.b{i}.")
        for i, blk in enumerate(self.refine):
            yield from blk.named_params(f"refine.b{i}.")
        yield from self.tail.named_params("tail.")

    def param_count(self) -> int:
        return sum(t.size for _, t in self.named_params())

    # -- forward ------------------------------------------------------------

    def _stem_kernel(self) -> Tensor:
        """The stem as one (C0, B, kH, kW) 2-D kernel, built on the tape from both stem parameters.

        Through depth tap a, the 3-D conv (K3: (C0, 1, kD, kH, kW), band padding
        p = kD // 2) sends band c to feature map f * B + c - a + p, and the 1x1
        collapse (K1: (C0, C0 * B, 1, 1)) sums those maps, so
        W[o, c, i, j] = sum over a, f of K1[o, f * B + c - a + p] * K3[f, 0, a, i, j],
        dropping the terms whose band index c - a + p lies outside [0, B).
        """
        k3, k1 = self.stem_3d.kernel, self.stem_collapse.kernel
        c0, _, kd, kh, kw = k3.shape
        b, p = self.config.bands, kd // 2
        zero = Tensor(np.zeros((c0, c0, p), dtype=k1.dtype))
        k1 = concat([zero, reshape(k1, (c0, c0, b)), zero], axis=2)  # (o, f, band), band c - a + p at c + 2p - a
        # tap a's shifted collapse weights, stacked as (o, a * C0 + f, c)
        taps = concat([slice_(k1, (slice(None), slice(None), slice(2 * p - a, 2 * p - a + b))) for a in range(kd)], 1)
        lhs = reshape(permute(taps, (0, 2, 1)), (c0 * b, kd * c0))
        rhs = reshape(permute(reshape(k3, (c0, kd, kh * kw)), (1, 0, 2)), (kd * c0, kh * kw))
        return reshape(matmul(lhs, rhs), (c0, b, kh, kw))

    def forward(self, x: Tensor) -> Tensor:
        """Noisy batch (N, B, H, W) to residual map of the same shape."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.bands:
            raise ShapeError(f"expected (N, {cfg.bands}, H, W), got {x.shape}")
        h, wd = x.shape[2:]
        div = 1 << (cfg.levels - 1)
        if h % div or wd % div:
            raise ShapeError(f"H, W must be divisible by {div} for {cfg.levels} levels, got {h}x{wd}")
        z = conv2d(x, Conv2dWeights(self._stem_kernel()))
        skips = []
        for lvl, blocks in enumerate(self.enc_blocks):
            for blk in blocks:
                z = _block_forward(z, blk)
            skips.append(z)
            z = conv2d(z, self.downs[lvl])
        for blk in self.bottleneck:
            z = _block_forward(z, blk)
        for d, blocks in enumerate(self.dec_blocks):
            z = nn.conv_transpose2d(z, self.ups[d])  # looked up in nn per call, so a wrapper set there sees it
            z = conv2d(concat([z, skips[len(skips) - 1 - d]], axis=1), self.skip_fuse[d])
            for blk in blocks:
                z = _block_forward(z, blk)
        for blk in self.refine:
            z = _block_forward(z, blk)
        return conv2d(z, self.tail)

    def denoise_batch(self, x: Tensor) -> Tensor:
        """Reconstruction = input + residual; no clipping."""
        return add(x, self.forward(x))

    def denoise(self, cube: np.ndarray) -> np.ndarray:
        """Denoise one (H, W, B) cube without recording gradients."""
        if cube.ndim != 3:
            raise ShapeError(f"expected a (H, W, B) cube, got shape {cube.shape}")
        x = np.ascontiguousarray(np.transpose(cube, (2, 0, 1))[None])
        with no_grad():
            y = self.denoise_batch(Tensor(x)).data
        return np.ascontiguousarray(np.transpose(y[0], (1, 2, 0)))

    # -- checkpoints ----------------------------------------------------------

    def save(self, path) -> None:
        with open(path, "wb") as f:
            self._write(f)

    def _write(self, f: BinaryIO) -> None:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        cfg = self.config.to_json().encode("utf-8")
        f.write(struct.pack("<I", len(cfg)))
        f.write(cfg)
        params = list(self.named_params())
        f.write(struct.pack("<I", len(params)))
        for name, t in params:
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.ndim))
            f.write(struct.pack(f"<{t.ndim}I", *t.shape))
            f.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())

    @staticmethod
    def load(path) -> "HcaNet":
        with open(path, "rb") as f:
            data = f.read()
        return HcaNet._read(io.BytesIO(data))

    @staticmethod
    def _read(f: BinaryIO) -> "HcaNet":
        def take(n: int) -> bytes:
            b = f.read(n)
            if len(b) != n:
                raise FormatError("truncated checkpoint")
            return b

        if take(4) != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", take(4))
        config = NetworkConfig.from_json(take(clen).decode("utf-8"))
        pos = f.tell()
        left = f.seek(0, io.SEEK_END) - pos
        f.seek(pos)
        # the build grows with the block count, so bound that by the file first: every
        # block stores at least four tensor records, far more than one byte
        per_level = config.blocks_per_level  # encoder and bottleneck, then the decoder's levels
        blocks = sum(per_level) + sum(per_level[:-1]) + config.refinement_blocks
        if blocks > left:
            raise FormatError(f"checkpoint config has {blocks} blocks, more than {left} bytes of tensors can hold")
        net = HcaNet.__new__(HcaNet)
        try:
            net._build(config, _Blank())
        except ValueError as e:  # extents numpy cannot represent
            raise FormatError(f"checkpoint config describes no buildable network: {e}") from e
        expected = dict(net.named_params())
        # the records the config implies, byte for byte, before any tensor is read
        need = 4 + sum(8 + len(name.encode("utf-8")) + 4 * (t.ndim + t.size) for name, t in expected.items())
        if need != left:
            raise FormatError(f"checkpoint holds {left} bytes of tensors, its config implies {need}")
        (count,) = struct.unpack("<I", take(4))
        if count != len(expected):
            raise FormatError(f"checkpoint has {count} tensors, model needs {len(expected)}")
        for _ in range(count):
            (nlen,) = struct.unpack("<I", take(4))
            name = take(nlen).decode("utf-8")
            t = expected.pop(name, None)  # popped, so no blank tensor survives a repeated name
            if t is None:
                raise FormatError(f"unknown or repeated tensor {name!r} in checkpoint")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            if shape != t.shape:
                raise FormatError(f"tensor {name!r} has shape {shape}, model needs {t.shape}")
            t.data = np.frombuffer(take(4 * t.size), dtype="<f4").reshape(shape).astype(np.float32)
        return net
