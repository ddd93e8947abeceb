"""End-to-end acceptance gate: ten checks, one test per criterion, in file order.

The two training criteria share a module-scoped toy run so the expensive work
happens once; the reproducibility criterion repeats the run from scratch and
compares artifact bytes.
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

from hcanet.cafm import attention_map
from hcanet.data import DatasetManifest, PatchDataset, save_cube, synthetic_cube
from hcanet.gradcheck import PRESETS
from hcanet.loss import grad_reg, l1_rec, total_loss
from hcanet.metrics import psnr, sam, ssim
from hcanet.network import HcaNet, NetworkConfig, desk_config, paper_config
from hcanet.noise import NoiseSpec, add_gaussian, apply_noise
from hcanet.tensor import Tensor
from hcanet.train import TrainConfig, train

SIGMA30_PSNR_DB = 10.0 * math.log10(1.0 / (30.0 / 255.0) ** 2)  # 18.588 dB

NOISE_CASES = ("case1", "case2", "case3", "case4", "case5")
ROTATIONS = ("identity", "rot90", "rot180", "rot270")

# Toy-run recipe, calibrated once on a single core: 8 epochs at batch 4 reach
# about +5.5 dB over the noisy baseline (criterion 07 asks for +5.0) in under
# two minutes.
TOY_TRAIN = TrainConfig(epochs=8, batch_size=4, lr0=3e-3, lr_final=1e-5, seed=3)
TOY_NOISE = NoiseSpec(kind="gaussian", seed=11, sigma=30.0)

# The ablation ladder uses structured noise (deadlines over non-i.i.d.
# Gaussian): the local 3-D branch pays off there, so the variant ordering is
# strict, not a coin flip.
ABLATION_TRAIN = TrainConfig(epochs=14, batch_size=4, lr0=3e-3, lr_final=1e-5, seed=3)
ABLATION_NOISE = NoiseSpec(kind="case3", seed=11)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_data")
    for i, seed in enumerate((1, 2)):
        save_cube(synthetic_cube(64, 64, 8, seed=seed), root / f"cube{i}.hsic")
    return root


def _dataset(root, samples, val_fraction):
    manifest = DatasetManifest(
        cubes=(str(root / "cube0.hsic"), str(root / "cube1.hsic")),
        patch_size=(32, 32, 8),
        scales=(1.0,),
        rotations=ROTATIONS,
        samples=samples,
        seed=7,
        val_fraction=val_fraction,
    )
    return PatchDataset(manifest)


def _toy_run(data_dir, out_dir):
    dataset = _dataset(data_dir, 200, 0.05)
    net = HcaNet(desk_config(8), seed=0)
    return train(TOY_TRAIN, dataset, TOY_NOISE, net, out_dir=str(out_dir))


@pytest.fixture(scope="module")
def toy_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_run_a")
    t0 = time.monotonic()
    result = _toy_run(data_dir, out)
    return result, time.monotonic() - t0, out


@pytest.fixture(scope="module")
def case_hashes():
    clean = synthetic_cube(64, 64, 30, seed=9)
    hashes = {}
    for kind in NOISE_CASES:
        noisy, _ = apply_noise(clean, NoiseSpec(kind=kind, seed=77))
        hashes[kind] = hashlib.sha256(noisy.tobytes()).hexdigest()
    return hashes


def test_criterion_01_gradcheck_all_presets():
    t0 = time.monotonic()
    for seed in range(5):
        for name, preset in PRESETS.items():
            result = preset(seed)
            assert result.ok, (
                f"{name} seed {seed}: max rel err {result.max_rel_err:.3e} "
                f"(worst: {result.worst()})"
            )
            assert result.max_rel_err < 1e-3
    assert time.monotonic() - t0 < 120.0


def test_criterion_02_zero_tail_is_identity():
    cfg = NetworkConfig(bands=4, base_width=8, blocks_per_level=(1, 1), refinement_blocks=1)
    net = HcaNet(cfg, seed=0)
    for name, p in net.named_params():
        if name.startswith("tail."):
            p.data[:] = 0.0
    rng = np.random.default_rng(42)
    for _ in range(10):
        cube = rng.random((16, 16, 4), dtype=np.float32)
        assert np.array_equal(net.denoise(cube), cube)


def test_criterion_03_attention_rows_are_convex():
    rng = np.random.default_rng(7)
    for c, h, w in [(8, 3, 4), (16, 5, 5), (4, 7, 3), (32, 3, 2)]:
        assert h * w != c  # the C-by-C shape cannot come from a transposed mixup
        q_hat = Tensor(rng.standard_normal((2, h * w, c)).astype(np.float32))
        k_hat = Tensor(rng.standard_normal((2, c, h * w)).astype(np.float32))
        amap = attention_map(q_hat, k_hat, 0.8)
        assert amap.shape == (2, c, c)
        row_sums = amap.data.sum(axis=-1)
        assert np.all(np.abs(row_sums - 1.0) <= 1e-6)


def test_criterion_04_loss_oracles_and_composition():
    pred = Tensor(np.zeros((2, 2, 1)))
    target = Tensor(np.array([[[0.2], [0.4]], [[0.6], [0.8]]]))
    assert float(l1_rec(pred, target).data) == pytest.approx(0.5, abs=1e-6)

    ramp = np.arange(2.0)[:, None, None] * np.ones((2, 2, 2))  # pred[i,j,k] = i
    pred2, target2 = Tensor(ramp), Tensor(np.zeros((2, 2, 2)))
    assert float(grad_reg(pred2, target2).data) == pytest.approx(1.0, abs=1e-6)

    total = total_loss(pred2, target2)  # the paper's weight, 0.01
    assert float(total.data) == pytest.approx(0.5 + 0.01 * 1.0, abs=1e-6)


def test_criterion_05_metric_oracles_and_closed_form():
    cube = synthetic_cube(128, 128, 8, seed=5)
    assert psnr(cube, cube) == 100.0
    assert ssim(cube, cube) == pytest.approx(1.0, abs=1e-9)
    assert sam(cube, cube) < 1e-7

    flat = np.zeros((16, 16, 3))
    assert psnr(flat + 0.1, flat) == pytest.approx(20.0, abs=1e-9)

    a = np.zeros((4, 4, 2))
    b = np.zeros((4, 4, 2))
    a[..., 0] = 1.0
    b[..., 1] = 1.0
    assert sam(a, b) == pytest.approx(math.pi / 2, abs=1e-6)

    rng = np.random.default_rng(3)
    p = rng.random((8, 8, 6)) + 0.1
    r = rng.random((8, 8, 6)) + 0.1
    assert sam(3.7 * p, r) == pytest.approx(sam(p, r), abs=1e-9)

    noisy, _ = add_gaussian(cube, 30.0, seed=123)
    assert psnr(noisy, cube) == pytest.approx(SIGMA30_PSNR_DB, abs=0.3)


def test_criterion_06_noise_cases_in_declared_bounds(case_hashes):
    t0 = time.monotonic()
    clean = synthetic_cube(64, 64, 30, seed=9)
    h, w, b = clean.shape
    third = math.ceil(b / 3)
    for kind in NOISE_CASES:
        noisy, report = apply_noise(clean, NoiseSpec(kind=kind, seed=77))

        assert len(report.gaussian) == b
        if kind == "case1":
            assert not (report.stripe or report.deadline or report.impulse)
        elif kind == "case2":
            assert len(report.stripe) == third
        elif kind == "case3":
            assert len(report.deadline) == third
        elif kind == "case4":
            assert len(report.impulse) == third
        else:
            assert report.stripe or report.deadline or report.impulse

        for entry in report.gaussian:
            assert 30.0 <= entry.sigma <= 70.0
        for entry in report.stripe:
            assert 0.05 <= entry.fraction <= 0.15
            assert len(entry.columns) == len(entry.offsets)
            assert all(abs(o) <= 0.25 for o in entry.offsets)
        impulse_bands = {e.band for e in report.impulse}
        for entry in report.deadline:
            assert 0.05 <= entry.fraction <= 0.15
            if entry.band not in impulse_bands:  # impulse may overwrite zeros
                assert np.all(noisy[:, entry.columns, entry.band] == 0.0)
        for entry in report.impulse:
            assert 0.3 <= entry.density <= 0.7
            plane = noisy[:, :, entry.band]
            assert np.isin(plane, (0.0, 1.0)).sum() >= entry.corrupted
            assert abs(entry.corrupted / (h * w) - entry.density) <= 0.05

        if kind == "case1":  # the Gaussian floor is measurable when unobstructed
            for entry in report.gaussian:
                measured = float(np.std(noisy[:, :, entry.band] - clean[:, :, entry.band]))
                assert measured == pytest.approx(entry.sigma / 255.0, rel=0.05)

        again, _ = apply_noise(clean, NoiseSpec(kind=kind, seed=77))
        assert again.tobytes() == noisy.tobytes()
        assert hashlib.sha256(noisy.tobytes()).hexdigest() == case_hashes[kind]
    assert time.monotonic() - t0 < 60.0


@pytest.mark.slow
def test_criterion_07_toy_training_beats_noisy_baseline(toy_run):
    result, elapsed, _ = toy_run
    assert elapsed < 1800.0
    assert result.best_val_psnr_db >= result.noisy_val_psnr_db + 5.0
    losses = [rec["train_loss"] for rec in result.history]
    assert len(losses) == TOY_TRAIN.epochs
    violations = sum(1 for prev, cur in zip(losses, losses[1:]) if cur >= prev)
    assert violations <= 1, f"losses not near-monotone: {losses}"


@pytest.mark.slow
def test_criterion_08_ablation_ordering(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    variants = [
        ("base", dict(local_branch=False, conv3d_enabled=False, msfn_enabled=False)),
        ("no_msfn", dict(local_branch=True, conv3d_enabled=True, msfn_enabled=False)),
        ("full", dict(local_branch=True, conv3d_enabled=True, msfn_enabled=True)),
    ]
    scores = {}
    for name, flags in variants:
        dataset = _dataset(data_dir, 120, 0.1)
        net = HcaNet(dataclasses.replace(desk_config(8), **flags), seed=0)
        result = train(ABLATION_TRAIN, dataset, ABLATION_NOISE, net, out_dir=str(out / name))
        scores[name] = result.best_val_psnr_db
    tie = 0.2  # dB
    assert scores["full"] >= scores["no_msfn"] - tie, scores
    assert scores["no_msfn"] >= scores["base"] - tie, scores


def test_criterion_09_parameter_budget():
    count = HcaNet(paper_config(31), seed=0).param_count()
    target = 4_750_000
    assert abs(count - target) <= 0.15 * target, count


@pytest.mark.slow
def test_criterion_10_bitwise_reproducibility(toy_run, case_hashes, data_dir, tmp_path_factory):
    result_a, _, out_a = toy_run
    out_b = tmp_path_factory.mktemp("toy_run_b")
    result_b = _toy_run(data_dir, out_b)
    assert result_b.history == result_a.history
    for fname in ("log.jsonl", "best.hcaw", "last.hcaw"):
        with open(out_a / fname, "rb") as fa, open(out_b / fname, "rb") as fb:
            assert fa.read() == fb.read(), f"{fname} differs between identical runs"

    clean = synthetic_cube(64, 64, 30, seed=9)
    for kind in NOISE_CASES:
        noisy, _ = apply_noise(clean, NoiseSpec(kind=kind, seed=77))
        assert hashlib.sha256(noisy.tobytes()).hexdigest() == case_hashes[kind]
