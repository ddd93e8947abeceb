"""Trainer: schedule, Adam algebra, and deterministic end-to-end runs."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcanet.data import DatasetManifest, PatchDataset, save_cube, synthetic_cube
from hcanet.errors import ConfigError, NumericsError
from hcanet.loss import total_loss
from hcanet.network import HcaNet, NetworkConfig
from hcanet.noise import NoiseSpec, apply_noise
from hcanet.tensor import Tensor, no_grad
from hcanet.train import (
    BETA1,
    BETA2,
    EPS,
    VAL_NOISE_SEED,
    OptimizerState,
    TrainConfig,
    adam_step,
    clip_gradients,
    init_optimizer,
    lr_at,
    train,
    _mix,
)


def tiny_dataset(tmp_path, samples=20, val_fraction=0.1, seed=5):
    cube = synthetic_cube(24, 24, 4, seed=3)
    path = tmp_path / "cube.hsic"
    save_cube(cube, path)
    manifest = DatasetManifest(
        cubes=(str(path),),
        patch_size=(16, 16, 4),
        scales=(1.0,),
        rotations=("identity",),
        samples=samples,
        seed=seed,
        val_fraction=val_fraction,
    )
    return PatchDataset(manifest)


def tiny_net(seed=0):
    cfg = NetworkConfig(
        bands=4,
        base_width=8,
        levels=2,
        blocks_per_level=(1, 1),
        refinement_blocks=1,
        shuffle_groups=4,
    )
    return HcaNet(cfg, seed=seed)


# -- config -------------------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.lr0 == 1e-4 and cfg.lr_final == 1e-6
    assert BETA1 == 0.9 and BETA2 == 0.999 and EPS == 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epochs": 0},
        {"batch_size": 0},
        {"lr0": 1e-6, "lr_final": 1e-4},
        {"lr0": 1e-4, "lr_final": 0.0},
        {"epochs": 2.0},
        {"batch_size": 1.5},
        {"seed": 1.5},
        {"lr0": 1e-4, "lr_final": 1e-4},
        {"seed": "0"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_config_json_roundtrip():
    cfg = TrainConfig(epochs=7, batch_size=3, lr0=2e-3, lr_final=1e-5, seed=9)
    # a manifest's "train" section is a valid --config section
    assert TrainConfig(**json.loads(cfg.to_json())) == cfg
    with pytest.raises(ConfigError):
        TrainConfig(**json.loads('{"epochs": "many"}'))


# -- learning-rate schedule ------------------------------------------------------


def test_lr_schedule_endpoints():
    cfg = TrainConfig(epochs=100)
    assert lr_at(0, cfg) == pytest.approx(1e-4, abs=1e-12)
    assert lr_at(99, cfg) == pytest.approx(1e-6, abs=1e-12)


def test_lr_schedule_midpoint():
    cfg = TrainConfig(epochs=101)
    # cos(pi/2) = 0 at the middle epoch, so lr is the arithmetic mean
    assert lr_at(50, cfg) == pytest.approx((1e-4 + 1e-6) / 2, rel=1e-9)


def test_lr_schedule_monotone_nonincreasing():
    cfg = TrainConfig(epochs=100)
    lrs = [lr_at(e, cfg) for e in range(cfg.epochs)]
    assert all(b <= a + 1e-15 for a, b in zip(lrs, lrs[1:]))


def test_lr_schedule_single_epoch_runs_at_lr0():
    cfg = TrainConfig(epochs=1)
    assert lr_at(0, cfg) == cfg.lr0


def test_lr_schedule_rejects_out_of_range_epoch():
    cfg = TrainConfig(epochs=10)
    with pytest.raises(ConfigError):
        lr_at(10, cfg)
    with pytest.raises(ConfigError):
        lr_at(-1, cfg)


@given(
    lr0=st.floats(1e-5, 1e-1),
    ratio=st.floats(1e-4, 0.5),
    epochs=st.integers(2, 300),
)
@settings(max_examples=50, deadline=None)
def test_lr_schedule_bounds_property(lr0, ratio, epochs):
    cfg = TrainConfig(epochs=epochs, lr0=lr0, lr_final=lr0 * ratio)
    lrs = [lr_at(e, cfg) for e in range(epochs)]
    assert lrs[0] == pytest.approx(lr0, rel=1e-9)
    assert lrs[-1] == pytest.approx(lr0 * ratio, rel=1e-9)
    assert all(cfg.lr_final - 1e-15 <= v <= cfg.lr0 + 1e-15 for v in lrs)


# -- Adam ----------------------------------------------------------------------


def one_param(value, grad):
    p = Tensor(np.array(value, dtype=np.float32), requires_grad=True)
    params = {"w": p}
    grads = {"w": np.array(grad, dtype=np.float32)}
    return params, grads, init_optimizer(params)


def test_adam_first_step_magnitude_is_lr():
    # m-hat = g and v-hat = g^2 on step one, so |delta| = lr*|g|/(|g|+eps)
    params, grads, state = one_param([0.3], [0.2])
    adam_step(params, grads, state, lr=0.01)
    delta = 0.3 - float(params["w"].data[0])
    assert delta == pytest.approx(0.01, rel=1e-4)


def test_adam_constant_gradient_descends_monotonically():
    params, grads, state = one_param([1.0], [0.5])
    seen = [1.0]
    for _ in range(50):
        adam_step(params, grads, state, lr=0.01)
        seen.append(float(params["w"].data[0]))
    assert all(b < a for a, b in zip(seen, seen[1:]))


def test_adam_negative_gradient_ascends():
    params, grads, state = one_param([0.0], [-0.5])
    adam_step(params, grads, state, lr=0.01)
    assert float(params["w"].data[0]) > 0.0


def test_adam_zero_gradient_leaves_params_unchanged():
    params, grads, state = one_param([0.7, -0.2], [0.0, 0.0])
    before = params["w"].data.copy()
    adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(params["w"].data, before)
    assert state.step == 1


def test_adam_nan_gradient_names_the_parameter():
    params, grads, state = one_param([0.5], [np.nan])
    with pytest.raises(NumericsError, match=r"parameter 'w'"):
        adam_step(params, grads, state, lr=0.01)


def test_adam_rejects_bad_lr_and_shape():
    params, grads, state = one_param([0.5], [0.1])
    with pytest.raises(ConfigError):
        adam_step(params, grads, state, lr=0.0)
    grads["w"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ConfigError):
        adam_step(params, grads, state, lr=0.01)


def test_adam_state_shapes_mirror_params():
    net = tiny_net()
    params = dict(net.named_params())
    state = init_optimizer(params)
    assert state.step == 0
    for name, p in params.items():
        assert state.m[name].shape == p.data.shape
        assert state.v[name].shape == p.data.shape


def test_clip_gradients_caps_global_norm():
    grads = {"a": np.full(4, 3.0, dtype=np.float32), "b": np.full(9, 4.0, dtype=np.float32)}
    norm = clip_gradients(grads, max_norm=1.0)
    assert norm == pytest.approx(math.sqrt(4 * 9 + 9 * 16))
    clipped = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads.values()))
    assert clipped == pytest.approx(1.0, rel=1e-5)


def test_clip_gradients_leaves_small_gradients_alone():
    grads = {"a": np.array([0.1, -0.2], dtype=np.float32)}
    before = grads["a"].copy()
    clip_gradients(grads, max_norm=1.0)
    assert np.array_equal(grads["a"], before)


# -- descent sanity ----------------------------------------------------------------


def test_single_small_step_strictly_decreases_loss(tmp_path):
    ds = tiny_dataset(tmp_path)
    net = tiny_net(seed=1)
    spec = NoiseSpec(kind="gaussian", seed=11, sigma=30.0)
    clean = np.stack([np.transpose(ds.patch(i), (2, 0, 1)) for i in range(4)])
    noisy = np.stack(
        [np.transpose(apply_noise(ds.patch(i), spec)[0], (2, 0, 1)) for i in range(4)]
    ).astype(np.float32)

    target = Tensor(clean.astype(np.float32))
    loss = total_loss(net.denoise_batch(Tensor(noisy)), target)
    before = float(loss.data)
    loss.backward()
    params = dict(net.named_params())
    grads = {n: p.grad for n, p in params.items()}
    adam_step(params, grads, init_optimizer(params), lr=1e-6)
    with no_grad():
        after = float(total_loss(net.denoise_batch(Tensor(noisy)), target).data)
    assert after < before


# -- end-to-end runs -----------------------------------------------------------------


def run_tiny(tmp_path, subdir, epochs=3, net_seed=1):
    ds = tiny_dataset(tmp_path)
    net = tiny_net(seed=net_seed)
    cfg = TrainConfig(epochs=epochs, batch_size=4, lr0=2e-3, lr_final=1e-5, seed=7)
    spec = NoiseSpec(kind="gaussian", seed=11, sigma=30.0)
    out = tmp_path / subdir
    return train(cfg, ds, spec, net, out_dir=str(out)), net, out


def test_train_writes_log_and_checkpoints(tmp_path):
    result, net, out = run_tiny(tmp_path, "run")
    assert len(result.history) == 3
    for rec in result.history:
        assert set(rec) == {"epoch", "lr", "train_loss", "val_psnr_db", "val_ssim", "val_sam_rad",
                            "grad_norm_mean", "grad_norm_max", "clip_events"}
        assert math.isfinite(rec["train_loss"])
    lines = [json.loads(l) for l in open(result.log_path, encoding="utf-8")]
    assert lines == result.history
    assert os.path.exists(result.best_path) and os.path.exists(result.last_path)


def test_clip_events_count_steps_above_the_clip(tmp_path, monkeypatch):
    import hcanet.train as train_mod

    norms = []

    def spy(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(train_mod, "clip_gradients", spy)
    clip = 4.6  # between the smallest and the largest pre-clip norm of this run
    monkeypatch.setattr(train_mod, "GRAD_CLIP", clip)
    ds = tiny_dataset(tmp_path)
    steps = -(-len(ds.split_indices()[0]) // 4)
    cfg = TrainConfig(epochs=2, batch_size=4, lr0=2e-3, lr_final=1e-5, seed=7)
    result = train(cfg, ds, NoiseSpec(kind="gaussian", seed=11, sigma=30.0), tiny_net(seed=1))
    assert len(norms) == 2 * steps
    for epoch, rec in enumerate(result.history):
        mine = norms[epoch * steps : (epoch + 1) * steps]
        assert rec["clip_events"] == sum(n > clip for n in mine)
        assert rec["grad_norm_max"] == max(mine)
        assert rec["grad_norm_mean"] == sum(mine) / steps
    assert 0 < sum(r["clip_events"] for r in result.history) < len(norms)


def test_train_loss_decreases_on_toy_run(tmp_path):
    result, _, _ = run_tiny(tmp_path, "run")
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_best_checkpoint_reproduces_validation_psnr_exactly(tmp_path):
    result, net, out = run_tiny(tmp_path, "run")
    ds = tiny_dataset(tmp_path)
    spec = NoiseSpec(kind="gaussian", seed=11, sigma=30.0)
    _, val_idx = ds.split_indices()
    loaded = HcaNet.load(result.best_path)
    from hcanet.metrics import evaluate

    psnrs = []
    for rank, i in enumerate(val_idx):
        clean = ds.patch(i)
        import dataclasses

        noisy, _ = apply_noise(
            clean, dataclasses.replace(spec, seed=_mix(spec.seed, VAL_NOISE_SEED, rank))
        )
        psnrs.append(evaluate(loaded.denoise(noisy), clean).psnr_db)
    assert float(np.mean(psnrs)) == result.best_val_psnr_db


def test_identically_seeded_runs_are_bit_identical(tmp_path):
    res_a, _, out_a = run_tiny(tmp_path, "a")
    res_b, _, out_b = run_tiny(tmp_path, "b")
    assert res_a.history == res_b.history
    assert open(res_a.log_path, "rb").read() == open(res_b.log_path, "rb").read()
    assert open(res_a.best_path, "rb").read() == open(res_b.best_path, "rb").read()
    assert open(res_a.last_path, "rb").read() == open(res_b.last_path, "rb").read()


def test_train_without_validation_split(tmp_path):
    ds = tiny_dataset(tmp_path, val_fraction=0.0)
    net = tiny_net()
    cfg = TrainConfig(epochs=1, batch_size=4, lr0=1e-3, lr_final=1e-5)
    spec = NoiseSpec(kind="gaussian", seed=2, sigma=30.0)
    result = train(cfg, ds, spec, net, out_dir=str(tmp_path / "novalid"))
    assert result.noisy_val_psnr_db is None
    assert result.best_epoch == -1
    assert "val_psnr_db" not in result.history[0]
    assert not os.path.exists(result.best_path)
    assert os.path.exists(result.last_path)


def test_nan_loss_aborts_and_preserves_checkpoints(tmp_path):
    ds = tiny_dataset(tmp_path)
    net = tiny_net()
    cfg = TrainConfig(epochs=2, batch_size=4, lr0=1e-3, lr_final=1e-5)
    spec = NoiseSpec(kind="gaussian", seed=2, sigma=30.0)
    params = dict(net.named_params())
    params["tail.kernel"].data[:] = np.nan
    with pytest.raises(NumericsError, match="not finite"):
        train(cfg, ds, spec, net, out_dir=str(tmp_path / "nan"))


def test_non_finite_gradient_norm_aborts(tmp_path, monkeypatch):
    import hcanet.train as train_mod

    monkeypatch.setattr(train_mod, "clip_gradients", lambda grads, max_norm: float("inf"))
    cfg = TrainConfig(epochs=1, batch_size=4, lr0=1e-3, lr_final=1e-5)
    spec = NoiseSpec(kind="gaussian", seed=2, sigma=30.0)
    with pytest.raises(NumericsError, match="gradient norm is not finite"):
        train(cfg, tiny_dataset(tmp_path), spec, tiny_net())


def test_noisy_baseline_is_recorded(tmp_path):
    result, _, _ = run_tiny(tmp_path, "run", epochs=1)
    # synthetic patches vs sigma=30 Gaussian: baseline sits near 18.6 dB
    assert 15.0 < result.noisy_val_psnr_db < 22.0


def test_mix_is_order_sensitive():
    assert _mix(1, 2, 3) != _mix(3, 2, 1)
    assert _mix(0, 0, 1) != _mix(0, 1, 0)
    assert _mix(5, 6) == _mix(5, 6)
