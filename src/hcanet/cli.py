"""Command-line interface: simulate, train, denoise, eval, gradcheck.

stdout carries exactly one machine-readable JSON document per command;
diagnostics go to stderr.  Exit codes: 0 success, 2 configuration or usage
error, 3 file or format error, 4 numerical failure.  Every command with file
outputs writes a RunManifest beside them, canonical JSON with enough
configuration (and input hashes) to reproduce the artifacts bit-for-bit.

Config precedence for `train`: command-line flags > --config file sections
("train", "network", "noise") > built-in defaults.  The noise-case ranges,
the Adam constants, the gradient clip and the loss weight are module
constants of `noise`, `train` and `loss`, not settings.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .data import ROTATIONS, DatasetManifest, PatchDataset, load_cube, save_cube
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    MetricError,
    NumericsError,
    ShapeError,
)
from .gradcheck import PRESETS
from .metrics import evaluate
from .network import HcaNet, NetworkConfig, desk_config
from .noise import COLUMN_KINDS, MIN_COLUMNS, NoiseSpec, apply_noise
from .train import TrainConfig, train

EXIT_CODES = {"ok": 0, "config": 2, "io": 3, "numerics": 4}

# case token -> the NoiseSpec fields it sets (all but the seed)
CASE_TOKENS = {
    "g30": {"kind": "gaussian", "sigma": 30.0},
    "g50": {"kind": "gaussian", "sigma": 50.0},
    "g70": {"kind": "gaussian", "sigma": 70.0},
    "blind": {"kind": "blind"},
    "case1": {"kind": "case1"},
    "case2": {"kind": "case2"},
    "case3": {"kind": "case3"},
    "case4": {"kind": "case4"},
    "case5": {"kind": "case5"},
}


@dataclasses.dataclass(frozen=True)
class RunManifest:
    command: str
    configs: dict
    inputs: dict
    outputs: tuple[str, ...]
    seed: int | None = None
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cube = load_cube(args.input)
    spec = NoiseSpec(seed=args.seed, **CASE_TOKENS[args.case])
    noisy, report = apply_noise(cube, spec)
    save_cube(noisy, args.out)
    report_path = args.report or args.out + ".report.json"
    with open(report_path, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    manifest_path = args.out + ".manifest.json"
    RunManifest(
        "simulate",
        configs={"noise": json.loads(spec.to_json())},
        inputs={"in": {"path": args.input, "sha256": _sha256_file(args.input)}},
        outputs=(args.out, report_path),
        seed=args.seed,
    ).save(manifest_path)
    _emit(
        {
            "case": args.case,
            "manifest": manifest_path,
            "out": args.out,
            "report": report_path,
            "seed": args.seed,
        }
    )
    return EXIT_CODES["ok"]


# -- train ------------------------------------------------------------------------


def _load_sections(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise FormatError(f"{path}: bad JSON: {e}") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object of config sections")
    known = {"train", "network", "noise"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}, expected among {sorted(known)}")
    for name, section in doc.items():
        if not isinstance(section, dict):
            raise FormatError(f"{path}: config section {name!r} must be a JSON object, got {section!r}")
    return doc


def _build(cls, kwargs: dict, what: str):
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad {what} config: {e}") from e


def cmd_train(args) -> int:
    sections = _load_sections(args.config)

    tc = dict(sections.get("train", {}))
    for key in ("epochs", "batch_size", "lr0", "lr_final", "seed"):
        v = getattr(args, key)
        if v is not None:
            tc[key] = v
    train_cfg = _build(TrainConfig, tc, "train")

    data_manifest = DatasetManifest.load(args.data)
    dataset = PatchDataset(data_manifest, base_dir=os.path.dirname(os.path.abspath(args.data)))
    bands = data_manifest.patch_size[2]

    nsec = dict(sections.get("network", {}))
    if nsec:
        if "blocks_per_level" in nsec:
            if not isinstance(nsec["blocks_per_level"], list):
                raise ConfigError(f"network.blocks_per_level must be a list, got {nsec['blocks_per_level']!r}")
            nsec["blocks_per_level"] = tuple(nsec["blocks_per_level"])
        nsec.setdefault("bands", bands)
        net_cfg = _build(NetworkConfig, nsec, "network")
    else:
        net_cfg = desk_config(bands)
    if net_cfg.bands != bands:
        raise ConfigError(
            f"band mismatch: network expects {net_cfg.bands} bands, dataset patches have {bands}"
        )

    nz = dict(sections.get("noise", {}))
    if args.case is not None:
        nz.update(CASE_TOKENS[args.case])
    nz.setdefault("kind", "blind")
    nz.setdefault("seed", train_cfg.seed)
    noise_spec = _build(NoiseSpec, nz, "noise")
    # rot90 and rot270 turn a patch's rows into the columns the noise sees
    width = min(data_manifest.patch_size[1 - ROTATIONS.index(r) % 2] for r in data_manifest.rotations)
    if noise_spec.kind in COLUMN_KINDS and width < MIN_COLUMNS:
        raise ConfigError(
            f"noise {noise_spec.kind} needs patches at least {MIN_COLUMNS} columns wide, got {width}"
        )

    net = HcaNet(net_cfg, seed=train_cfg.seed)
    print(
        f"training: {net.param_count()} params, {len(dataset)} samples, "
        f"{train_cfg.epochs} epochs, noise={noise_spec.kind}",
        file=sys.stderr,
    )
    result = train(train_cfg, dataset, noise_spec, net, out_dir=args.out)
    best = result.best_path if result.best_epoch >= 0 else None  # written only when validation ran

    manifest_path = os.path.join(args.out, "manifest.json")
    RunManifest(
        "train",
        configs={
            "network": json.loads(net_cfg.to_json()),
            "noise": json.loads(noise_spec.to_json()),
            "train": json.loads(train_cfg.to_json()),
        },
        inputs={"data": {"path": args.data, "sha256": _sha256_text(data_manifest.to_json())}},
        outputs=tuple(p for p in (result.log_path, best, result.last_path) if p is not None),
        seed=train_cfg.seed,
    ).save(manifest_path)

    _emit(
        {
            "best": best,
            "best_epoch": result.best_epoch if best else None,
            "best_val_psnr_db": result.best_val_psnr_db if best else None,
            "epochs": len(result.history),
            "last": result.last_path,
            "log": result.log_path,
            "manifest": manifest_path,
            "noisy_val_psnr_db": result.noisy_val_psnr_db,
            "out": args.out,
        }
    )
    return EXIT_CODES["ok"]


# -- denoise ----------------------------------------------------------------------


def cmd_denoise(args) -> int:
    net = HcaNet.load(args.model)
    cube = load_cube(args.input)
    if cube.shape[2] != net.config.bands:
        raise ConfigError(
            f"band mismatch: checkpoint expects {net.config.bands} bands, "
            f"input cube has {cube.shape[2]}"
        )
    restored = np.clip(net.denoise(cube), 0.0, 1.0)  # clip at export only
    save_cube(restored, args.out)
    manifest_path = args.out + ".manifest.json"
    RunManifest(
        "denoise",
        configs={"network": json.loads(net.config.to_json())},
        inputs={
            "in": {"path": args.input, "sha256": _sha256_file(args.input)},
            "model": {"path": args.model, "sha256": _sha256_file(args.model)},
        },
        outputs=(args.out,),
    ).save(manifest_path)
    _emit({"manifest": manifest_path, "out": args.out})
    return EXIT_CODES["ok"]


# -- eval -------------------------------------------------------------------------


def cmd_eval(args) -> int:
    pred = load_cube(args.pred)
    ref = load_cube(args.ref)
    report = evaluate(pred, ref)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report.to_json())
    manifest_path = args.out + ".manifest.json"
    RunManifest(
        "eval",
        configs={},
        inputs={
            "pred": {"path": args.pred, "sha256": _sha256_file(args.pred)},
            "ref": {"path": args.ref, "sha256": _sha256_file(args.ref)},
        },
        outputs=(args.out,),
    ).save(manifest_path)
    print(report.to_json())
    return EXIT_CODES["ok"]


# -- gradcheck --------------------------------------------------------------------


def cmd_gradcheck(args) -> int:
    result = PRESETS[args.preset]()
    doc = result.to_dict()
    worst = result.worst()
    _emit(
        {
            "checks": len(doc["checks"]),
            "max_rel_err": doc["max_rel_err"],
            "ok": doc["ok"],
            "preset": args.preset,
            "tolerance": doc["tolerance"],
            "worst": worst.name,
        }
    )
    if not result.ok:
        print(
            f"gradcheck failed: {worst.name} rel_err={worst.rel_err:.3e} "
            f">= {result.tolerance:.0e}",
            file=sys.stderr,
        )
        return EXIT_CODES["numerics"]
    return EXIT_CODES["ok"]


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hcanet",
        description="Hyperspectral image denoising: noise simulation, training, inference, metrics.",
    )
    p.add_argument("--version", action="version", version=f"hcanet {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="add synthetic noise to a cube")
    s.add_argument("--in", dest="input", required=True, help="input cube (.hsic)")
    s.add_argument("--case", required=True, choices=sorted(CASE_TOKENS))
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True, help="output noisy cube (.hsic)")
    s.add_argument("--report", default=None, help="degradation report path (default: <out>.report.json)")
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("train", help="train a denoiser on a patch dataset")
    t.add_argument("--config", default=None, help="JSON file with train/network/noise sections")
    t.add_argument("--data", required=True, help="dataset manifest JSON")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--case", default=None, choices=sorted(CASE_TOKENS), help="training noise (default blind)")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    t.add_argument("--lr0", type=float, default=None)
    t.add_argument("--lr-final", dest="lr_final", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("denoise", help="run a checkpoint on a cube")
    d.add_argument("--model", required=True, help="checkpoint (.hcaw)")
    d.add_argument("--in", dest="input", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_denoise)

    e = sub.add_parser("eval", help="compare a restored cube against a reference")
    e.add_argument("--pred", required=True)
    e.add_argument("--ref", required=True)
    e.add_argument("--out", required=True, help="metric report JSON path")
    e.set_defaults(func=cmd_eval)

    g = sub.add_parser("gradcheck", help="finite-difference check of the backward pass")
    g.add_argument("--preset", required=True, choices=sorted(PRESETS))
    g.set_defaults(func=cmd_gradcheck)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse already printed usage to stderr
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except (ConfigError, ShapeError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES["config"]
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES["io"]
    except (NumericsError, MetricError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODES["numerics"]


if __name__ == "__main__":
    sys.exit(main())
