#!/usr/bin/env python3
"""Desk-scale training demo: synthetic cubes, desk preset, Gaussian noise.

Builds a 200-patch dataset on the fly, trains the small preset for a few
minutes on one core, and reports the PSNR gain over the noisy baseline.
Progress goes to stderr; the final summary is one JSON line on stdout.
"""

import argparse
import json
import os
import sys
import tempfile
import time

from hcanet.data import DatasetManifest, PatchDataset, save_cube, synthetic_cube
from hcanet.network import HcaNet, desk_config
from hcanet.noise import NoiseSpec
from hcanet.train import TrainConfig, train

VAL_FRACTION = 0.05


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="run directory (default: a fresh temp dir)")
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--batch-size", type=int, default=4)
    ap.add_argument("--lr0", type=float, default=3e-3)
    ap.add_argument("--sigma", type=float, default=30.0)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    if round(args.samples * VAL_FRACTION) == 0:  # PatchDataset rounds its split the same way
        ap.error(f"--samples {args.samples} leaves no validation patch at val_fraction {VAL_FRACTION}")

    out = args.out or tempfile.mkdtemp(prefix="hcanet-toy-")
    data_dir = os.path.join(out, "data")
    os.makedirs(data_dir, exist_ok=True)
    names = []
    for i in range(2):
        name = f"cube{i}.hsic"
        save_cube(synthetic_cube(64, 64, 8, seed=1 + i), os.path.join(data_dir, name))
        names.append(name)
    manifest = DatasetManifest(
        cubes=tuple(names),
        patch_size=(32, 32, 8),
        scales=(1.0,),
        rotations=("identity", "rot90", "rot180", "rot270"),
        samples=args.samples,
        seed=7,
        val_fraction=VAL_FRACTION,
    )
    dataset = PatchDataset(manifest, base_dir=data_dir)
    net = HcaNet(desk_config(8), seed=0)
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr0=args.lr0, lr_final=1e-5, seed=args.seed
    )
    spec = NoiseSpec(kind="gaussian", seed=11, sigma=args.sigma)

    t0 = time.time()
    result = train(cfg, dataset, spec, net, out_dir=out)
    for rec in result.history:
        print(
            f"epoch {rec['epoch']:3d}  lr {rec['lr']:.2e}  loss {rec['train_loss']:.5f}  "
            f"val psnr {rec['val_psnr_db']:.3f} dB",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "best_epoch": result.best_epoch,
                "best_val_psnr_db": result.best_val_psnr_db,
                "gain_db": result.best_val_psnr_db - result.noisy_val_psnr_db,
                "noisy_val_psnr_db": result.noisy_val_psnr_db,
                "out": out,
                "seconds": round(time.time() - t0, 1),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
