"""Adam training loop with cosine learning-rate decay and checkpointing.

Determinism contract: given (TrainConfig, DatasetManifest, NoiseSpec, network
seed), every batch, every noise realization, and therefore every logged number
is a pure function of configuration.  Batches are assembled serially, in
sample order.

Per-sample noise seeds mix (spec seed, train seed, epoch, sample index)
through a fixed polynomial so no two draws share a Philox stream.  Validation
pairs are noised once with the dedicated seed ``VAL_NOISE_SEED`` and reused at
every epoch, so the validation curve measures the model, not the noise.

The Adam constants, the global-norm clip and the validation noise seed are
fixed module constants; a ``TrainConfig`` chooses only the schedule and the
seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import PatchDataset
from .errors import ConfigError, NumericsError
from .loss import total_loss
from .metrics import evaluate
from .network import HcaNet
from .noise import NoiseSpec, apply_noise
from .tensor import Tensor

_MASK64 = 0xFFFFFFFFFFFFFFFF

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam
GRAD_CLIP = 1.0  # cap on the global gradient L2 norm
VAL_NOISE_SEED = 101


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 8
    lr0: float = 1e-4
    lr_final: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # a float count would fail only after the network is built
        if not all(isinstance(v, int) for v in (self.epochs, self.batch_size, self.seed)):
            raise ConfigError(f"epochs, batch_size and seed must be integers, got {self}")
        if self.epochs <= 0:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not self.lr0 > self.lr_final > 0:
            raise ConfigError(f"need lr0 > lr_final > 0, got lr0={self.lr0}, lr_final={self.lr_final}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Cosine interpolation from lr0 (epoch 0) down to lr_final (last epoch)."""
    if not 0 <= epoch < cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if cfg.epochs == 1:
        return cfg.lr0  # degenerate schedule: the only epoch runs at lr0
    u = epoch / (cfg.epochs - 1)
    return cfg.lr_final + 0.5 * (cfg.lr0 - cfg.lr_final) * (1.0 + math.cos(math.pi * u))


# -- optimizer -----------------------------------------------------------------


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer(params: dict[str, Tensor]) -> OptimizerState:
    return OptimizerState(
        m={n: np.zeros_like(p.data) for n, p in params.items()},
        v={n: np.zeros_like(p.data) for n, p in params.items()},
    )


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: OptimizerState, lr: float) -> None:
    """Bias-corrected Adam update with BETA1, BETA2 and EPS, in place on the parameter tensors."""
    if lr <= 0:
        raise ConfigError(f"lr must be positive, got {lr}")
    state.step += 1
    t = state.step
    c1 = np.float32(1.0 / (1.0 - BETA1**t))
    c2 = np.float32(1.0 / (1.0 - BETA2**t))
    b1, b2 = np.float32(BETA1), np.float32(BETA2)
    lr32, eps32 = np.float32(lr), np.float32(EPS)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape {g.shape} does not match {name} {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient for parameter {name!r} at step {t}")
        g = g.astype(np.float32, copy=False)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p.data = p.data - lr32 * (m * c1) / (np.sqrt(v * c2) + eps32)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm; returns the pre-clip norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(np.square(g, dtype=np.float64)))
    norm = math.sqrt(sq)
    if norm > max_norm:
        s = np.float32(max_norm / norm)
        for g in grads.values():
            g *= s
    return norm


# -- batch assembly -------------------------------------------------------------


def _mix(*parts: int) -> int:
    """Polynomial seed mixing; injective for desk-scale (epoch, index) ranges."""
    z = 0
    for p in parts:
        z = (z * 1_000_003 + int(p)) & _MASK64
    return z


def _assemble(dataset: PatchDataset, items, spec: NoiseSpec):
    """(clean, noisy) patch pairs for items, a list of (sample index, noise seed)."""
    pairs = []
    for i, seed in items:
        clean = dataset.patch(i)
        pairs.append((clean, apply_noise(clean, dataclasses.replace(spec, seed=seed))[0]))
    return pairs


def _to_batch(pairs) -> tuple[np.ndarray, np.ndarray]:
    clean = np.stack([np.transpose(c, (2, 0, 1)) for c, _ in pairs]).astype(np.float32)
    noisy = np.stack([np.transpose(n, (2, 0, 1)) for _, n in pairs]).astype(np.float32)
    return clean, noisy


# -- training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_psnr_db: float = float("-inf")
    noisy_val_psnr_db: float | None = None
    log_path: str | None = None
    best_path: str | None = None
    last_path: str | None = None


def _validate(net: HcaNet, val_pairs) -> tuple[float, float, float]:
    ps, ss, sa = [], [], []
    for clean, noisy in val_pairs:
        rep = evaluate(net.denoise(noisy), clean)
        ps.append(rep.psnr_db)
        ss.append(rep.ssim)
        sa.append(rep.sam_rad)
    return float(np.mean(ps)), float(np.mean(ss)), float(np.mean(sa))


def train(
    cfg: TrainConfig,
    dataset: PatchDataset,
    noise_spec: NoiseSpec,
    net: HcaNet,
    out_dir: str | None = None,
) -> TrainResult:
    """Optimize net on noisy/clean patch pairs; returns the epoch history.

    Each epoch's record holds its loss, learning rate, the mean and maximum of
    its steps' pre-clip gradient norms and how many steps were clipped, plus
    validation metrics when there is a validation split.  With out_dir set,
    writes log.jsonl (one record per epoch), last.hcaw after every epoch, and
    best.hcaw whenever validation PSNR improves.  A non-finite loss or gradient
    aborts the run; checkpoints already on disk are left in place.
    """
    train_idx, val_idx = dataset.split_indices()
    if not train_idx:
        raise ConfigError("training split is empty")
    val_items = [(i, _mix(noise_spec.seed, VAL_NOISE_SEED, rank)) for rank, i in enumerate(val_idx)]
    val_pairs = _assemble(dataset, val_items, noise_spec)
    noisy_psnr = None
    if val_pairs:
        noisy_psnr = float(np.mean([evaluate(noisy, clean).psnr_db for clean, noisy in val_pairs]))

    params = dict(net.named_params())
    state = init_optimizer(params)
    result = TrainResult(noisy_val_psnr_db=noisy_psnr)

    log_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        result.log_path = os.path.join(out_dir, "log.jsonl")
        result.best_path = os.path.join(out_dir, "best.hcaw")
        result.last_path = os.path.join(out_dir, "last.hcaw")
        log_file = open(result.log_path, "w", encoding="utf-8")

    try:
        for epoch in range(cfg.epochs):
            lr = lr_at(epoch, cfg)
            order = dataset.epoch_order(epoch, train_idx)
            loss_sum, seen, norms = 0.0, 0, []
            for start in range(0, len(order), cfg.batch_size):
                chunk = order[start : start + cfg.batch_size]
                items = [(i, _mix(noise_spec.seed, cfg.seed, epoch, i)) for i in chunk]
                clean, noisy = _to_batch(_assemble(dataset, items, noise_spec))
                pred = net.denoise_batch(Tensor(noisy))
                loss = total_loss(pred, Tensor(clean))
                lval = float(loss.data)
                if not math.isfinite(lval):
                    raise NumericsError(
                        f"training loss is not finite at epoch {epoch}, sample offset {start}; "
                        "checkpoints on disk are preserved"
                    )
                loss.backward()
                grads = {
                    n: (p.grad if p.grad is not None else np.zeros_like(p.data))
                    for n, p in params.items()
                }
                for p in params.values():
                    p.grad = None
                norms.append(clip_gradients(grads, GRAD_CLIP))
                if not math.isfinite(norms[-1]):
                    raise NumericsError(
                        f"gradient norm is not finite at epoch {epoch}, sample offset {start}; "
                        "checkpoints on disk are preserved"
                    )
                adam_step(params, grads, state, lr)
                loss_sum += lval * len(chunk)
                seen += len(chunk)

            record = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": loss_sum / seen,
                # pre-clip global gradient norms of the epoch's steps
                "grad_norm_mean": sum(norms) / len(norms),
                "grad_norm_max": max(norms),
                "clip_events": sum(n > GRAD_CLIP for n in norms),
            }
            if val_pairs:
                vp, vs, va = _validate(net, val_pairs)
                record.update(val_psnr_db=vp, val_ssim=vs, val_sam_rad=va)
                if vp > result.best_val_psnr_db:
                    result.best_val_psnr_db = vp
                    result.best_epoch = epoch
                    if out_dir is not None:
                        net.save(result.best_path)
            result.history.append(record)
            if log_file is not None:
                log_file.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
                log_file.flush()
            if out_dir is not None:
                net.save(result.last_path)
    finally:
        if log_file is not None:
            log_file.close()
    return result
