#!/usr/bin/env python3
"""Ablation ladder at toy scale: base FFN, +local branch, +3-D convs, +MSFN.

Every variant trains on the same dataset with the same budget and seeds, so
the rows differ only in architecture.  One JSON line per variant on stdout.

The default noise recipe is case3 (deadlines over non-i.i.d. Gaussian): at
this budget structured noise is what separates the variants.  Pure Gaussian
leaves the extra branches under-trained and can invert the ladder.
"""

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

from hcanet.data import DatasetManifest, PatchDataset, save_cube, synthetic_cube
from hcanet.network import HcaNet, desk_config
from hcanet.noise import NoiseSpec
from hcanet.train import TrainConfig, train

VAL_FRACTION = 0.1
VARIANTS = [
    ("base", dict(local_branch=False, conv3d_enabled=False, msfn_enabled=False)),
    ("+local", dict(local_branch=True, conv3d_enabled=False, msfn_enabled=False)),
    ("+conv3d", dict(local_branch=True, conv3d_enabled=True, msfn_enabled=False)),
    ("full", dict(local_branch=True, conv3d_enabled=True, msfn_enabled=True)),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="run directory (default: a fresh temp dir)")
    ap.add_argument("--epochs", type=int, default=14)
    ap.add_argument("--batch-size", type=int, default=4)
    ap.add_argument("--lr0", type=float, default=3e-3)
    ap.add_argument("--case", default="case3", help="noise recipe: gaussian, blind, or case1..case5")
    ap.add_argument("--sigma", type=float, default=30.0, help="sigma when --case gaussian")
    ap.add_argument("--samples", type=int, default=120)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    if round(args.samples * VAL_FRACTION) == 0:  # PatchDataset rounds its split the same way
        ap.error(f"--samples {args.samples} leaves no validation patch at val_fraction {VAL_FRACTION}")

    out = args.out or tempfile.mkdtemp(prefix="hcanet-ablation-")
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
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr0=args.lr0, lr_final=1e-5, seed=args.seed
    )
    spec = NoiseSpec(kind=args.case, seed=11, sigma=args.sigma)

    for name, flags in VARIANTS:
        net_cfg = dataclasses.replace(desk_config(8), **flags)
        net = HcaNet(net_cfg, seed=0)
        t0 = time.time()
        result = train(cfg, dataset, spec, net, out_dir=os.path.join(out, name.strip("+")))
        print(
            json.dumps(
                {
                    "params": net.param_count(),
                    "seconds": round(time.time() - t0, 1),
                    "val_psnr_db": result.best_val_psnr_db,
                    "variant": name,
                },
                sort_keys=True,
            )
        )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
