"""One benchmark workload, run in its own process.

``run.py`` starts this file with the thread counts pinned and ``src`` on the
path, and reads the JSON result it writes.  Both workloads are the user
journey of the README: train a preset with ``train.train()``, then run
``simulate``, ``denoise`` and ``eval`` through ``cli.main`` on a held-out scene
with the checkpoint training wrote.  They differ in where the time goes:

- ``train-desk``: the desk preset trained on 32x32x8 patches, batch 4.  The
  taped forward and backward dominate; the restore half is a 64x64x8 scene.
- ``restore-paper256``: the paper preset (4.73M parameters) briefly trained
  at batch 1, then restoring a 256x256x31 scene.  Tape-free inference on wide
  channels, SSIM and noise synthesis dominate; its training steps are
  dominated by Adam and clipping over 4.73M parameters.

The workload seed picks one of ``INPUT_SETS`` input sets (seed modulo that
count); each has reference outputs in ``references.json``, so every run
checks its outputs against stored values.  After measuring, a gradient probe
takes the loss and gradient of a fresh network on one fixed batch: one step is
too short for a float32 reordering to grow, so the probe is what tells a wrong
backward pass from a reordered one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUT_SETS = 10

# Inputs per workload and size.  ``smoke`` is the self-test's tiny variant.
# samples are chosen so each epoch's training split is whole batches and the
# run has at least 100 step intervals within epochs.  simulate_calls repeats
# the cheap simulate command in each journey so its median has enough samples.
WORKLOADS = {
    "train-desk": {
        "full": dict(preset="desk", bands=8, cube_hw=64, cubes=2, patch=32, samples=215,
                     epochs=2, batch=4, scene_hw=64, scene_case="g30", min_journeys=5,
                     simulate_calls=1),
        "smoke": dict(preset="desk", bands=8, cube_hw=32, cubes=2, patch=16, samples=12,
                      epochs=2, batch=4, scene_hw=32, scene_case="g30", min_journeys=2,
                      simulate_calls=1),
    },
    "restore-paper256": {
        "full": dict(preset="paper", bands=31, cube_hw=64, cubes=2, patch=16, samples=54,
                     epochs=2, batch=1, scene_hw=256, scene_case="case5", min_journeys=3,
                     simulate_calls=4),
        "smoke": dict(preset="paper", bands=31, cube_hw=32, cubes=2, patch=16, samples=12,
                      epochs=1, batch=1, scene_hw=32, scene_case="case5", min_journeys=2,
                      simulate_calls=2),
    },
}
TRAIN_SIGMA = 30.0  # training noise: Gaussian, sigma 30 (the CLI's g30)
SETUP_REPEATS = 10  # set-up samples per run: this process plus nine fresh ones
# The restore journeys fill at least this share of --seconds, however long
# training took: their medians spread less over a longer window.
JOURNEY_SHARE = 1 / 3

END_TO_END_UNITS = {
    "train_samples_per_s": "samples/s",
    "step_p50_s": "s",
    "step_p90_s": "s",
    "simulate_s": "s",
    "denoise_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_hcanet() -> float:
    t = time.perf_counter()
    import hcanet.cli  # noqa: F401  (imports every module a user run touches)
    import hcanet.train  # noqa: F401

    return time.perf_counter() - t


def _seeds(index: int) -> dict[str, int]:
    base = 7 + 100 * index
    # one simulate seed for every set: case5's cost depends on which bands draw
    # which noise, and that should not vary from run to run
    return {"data": base, "scene": base + 50, "net": index, "simulate": 1000}


def _net_config(spec):
    from hcanet.network import desk_config, paper_config

    return desk_config(spec["bands"]) if spec["preset"] == "desk" else paper_config(spec["bands"])


def _construct(spec, work: Path, seeds):
    """The set-up a user pays before training: dataset and network."""
    from hcanet.data import DatasetManifest, PatchDataset
    from hcanet.network import HcaNet

    dataset = PatchDataset(DatasetManifest.load(work / "data" / "manifest.json"), base_dir=str(work / "data"))
    net = HcaNet(_net_config(spec), seed=seeds["net"])
    return dataset, net


def make_inputs(spec, work: Path, seeds) -> None:
    """Dataset as scripts/make_dataset.py builds it, plus a held-out scene."""
    from hcanet.data import DatasetManifest, save_cube, synthetic_cube

    data = work / "data"
    data.mkdir(parents=True)
    names = []
    for i in range(spec["cubes"]):
        name = f"cube{i:03d}.hsic"
        hw = spec["cube_hw"]
        save_cube(synthetic_cube(hw, hw, spec["bands"], seed=seeds["data"] + i), data / name)
        names.append(name)
    p = spec["patch"]
    DatasetManifest(
        cubes=tuple(names),
        patch_size=(p, p, spec["bands"]),
        scales=(1.0,),
        rotations=("identity", "rot90", "rot180", "rot270"),
        samples=spec["samples"],
        seed=seeds["data"],
        val_fraction=0.05,
    ).save(data / "manifest.json")
    hw = spec["scene_hw"]
    save_cube(synthetic_cube(hw, hw, spec["bands"], seed=seeds["scene"]), work / "scene.hsic")


def _setup_probe(spec_key: str, size: str, work: str, index: int) -> None:
    """Entry point of a fresh process that measures set-up once."""
    t_import = _import_hcanet()
    t = time.perf_counter()
    _construct(WORKLOADS[spec_key][size], Path(work), _seeds(index))
    print(t_import + time.perf_counter() - t)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _close(observed: float, expected: float, tol: float) -> bool:
    return math.isfinite(observed) and abs(observed - expected) <= tol


class Run:
    """Counts attempted and failed operations and records output checks."""

    def __init__(self, ref: dict | None, tolerances: dict):
        self.ref = ref
        self.tol = tolerances
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def _train_phase(run: Run, spec, dataset, net, work: Path, seeds, stamps: list):
    from hcanet import train as train_mod
    from hcanet.noise import NoiseSpec

    train_idx, _ = dataset.split_indices()
    steps_per_epoch = math.ceil(len(train_idx) / spec["batch"])
    steps = steps_per_epoch * spec["epochs"]
    run.attempted += steps
    # default learning rates: at the README's larger rate a float32 reordering
    # moves the final loss far more (see README)
    cfg = train_mod.TrainConfig(epochs=spec["epochs"], batch_size=spec["batch"], seed=seeds["net"])
    noise = NoiseSpec(kind="gaussian", sigma=TRAIN_SIGMA, seed=seeds["net"])
    t = time.perf_counter()
    try:
        result = train_mod.train(cfg, dataset, noise, net, out_dir=str(work / "train"))
    except Exception as e:  # a crash in the program under test is a measured failure
        run.failed += steps - len(stamps)
        run.check("train.completes", False, f"{type(e).__name__}: {e}")
        return None, {}, {}
    wall = time.perf_counter() - t
    run.check("train.completes", True)

    hist = result.history
    finite = all(math.isfinite(r["train_loss"]) and math.isfinite(r.get("val_psnr_db", 0.0)) for r in hist)
    got = {"final_train_loss": hist[-1]["train_loss"], "final_val_psnr_db": hist[-1]["val_psnr_db"]}
    ok = run.check("train.history_finite", finite)
    ref = (run.ref or {}).get("train")
    if ref is None:
        ok = run.check("train.reference", False, "no stored reference")
    else:
        rel = abs(got["final_train_loss"] - ref["final_train_loss"]) / ref["final_train_loss"]
        ok &= run.check("train.final_train_loss", math.isfinite(rel) and rel <= run.tol["train_loss_rel"],
                        f"relative error {rel:.3g}")
        ok &= run.check("train.final_val_psnr_db",
                        _close(got["final_val_psnr_db"], ref["final_val_psnr_db"], run.tol["val_psnr_db"]),
                        f"{got['final_val_psnr_db']:.6f} vs {ref['final_val_psnr_db']:.6f} dB")
    if not ok:
        run.failed += steps

    intervals = []
    for e in range(spec["epochs"]):
        epoch = stamps[e * steps_per_epoch : (e + 1) * steps_per_epoch]
        intervals += [b - a for a, b in zip(epoch, epoch[1:])]
    timing = {
        "train_wall_s": wall,
        "train_samples": len(train_idx) * spec["epochs"],
        "step_intervals": intervals,
    }
    ckpt = result.best_path if result.best_epoch >= 0 else result.last_path
    return ckpt, timing, {"train": got}


def _rel(observed: float, expected: float) -> float:
    return abs(observed - expected) / abs(expected) if expected else abs(observed)


def _gradient_probe(run: Run, spec, work: Path, seeds, observed: dict) -> None:
    """Loss and gradient of a fresh network on one fixed batch; one operation.

    The gradient is summarised by its norm over the parameters of each
    top-level block (``enc0``, ``mid``, ``tail``, ...).  Every value must match
    the reference within the relative tolerance ``gradient_rel``.
    """
    import numpy as np
    from hcanet.data import load_cube
    from hcanet.loss import total_loss
    from hcanet.network import HcaNet
    from hcanet.tensor import Tensor

    run.attempted += 1
    p = spec["patch"]
    clean = np.transpose(load_cube(work / "scene.hsic")[:p, :p], (2, 0, 1))[None].astype(np.float32)
    rng = np.random.default_rng(seeds["scene"])
    noisy = (clean + rng.normal(0.0, TRAIN_SIGMA / 255.0, clean.shape)).astype(np.float32)
    net = HcaNet(_net_config(spec), seed=seeds["net"])
    try:
        loss = total_loss(net.denoise_batch(Tensor(noisy)), Tensor(clean))
        loss.backward()
    except Exception as e:  # a crash in the program under test is a measured failure
        run.failed += 1
        run.check("train.gradient", False, f"{type(e).__name__}: {e}")
        return
    sums: dict[str, float] = {}
    for name, t in net.named_params():
        block = name.split(".")[0]
        g = 0.0 if t.grad is None else float(np.sum(np.square(t.grad, dtype=np.float64)))
        sums[block] = sums.get(block, 0.0) + g
    got = {"loss": float(loss.data), "grad_norm": {k: math.sqrt(v) for k, v in sums.items()}}
    observed["gradient"] = got
    want = (run.ref or {}).get("gradient")
    if want is None or set(want["grad_norm"]) != set(got["grad_norm"]):
        ok = run.check("train.gradient", False, "no stored reference for these blocks")
    else:
        errs = {k: _rel(v, want["grad_norm"][k]) for k, v in got["grad_norm"].items()}
        errs["loss"] = _rel(got["loss"], want["loss"])
        worst = max(errs, key=errs.get)
        ok = run.check("train.gradient", all(math.isfinite(v) and v <= run.tol["gradient_rel"]
                                              for v in errs.values()),
                       f"largest relative error {errs[worst]:.3g} ({worst})")
    if not ok:
        run.failed += 1


def _journey(run: Run, cli_main, spec, work: Path, ckpt: str, seeds, times: dict, observed: dict, tracer):
    """simulate -> denoise -> eval through the CLI; each command is one operation."""
    import numpy as np
    from hcanet.data import load_cube

    scene, noisy, restored, report = (str(work / n) for n in ("scene.hsic", "noisy.hsic", "restored.hsic",
                                                              "report.json"))
    simulate = ["simulate", "--in", scene, "--case", spec["scene_case"], "--seed", str(seeds["simulate"]),
                "--out", noisy]
    commands = [("simulate", simulate)] * spec["simulate_calls"] + [
        ("denoise", ["denoise", "--model", ckpt, "--in", noisy, "--out", restored]),
        ("eval", ["eval", "--pred", restored, "--ref", scene, "--out", report]),
    ]
    ref = run.ref or {}
    for name, argv in commands:
        run.attempted += 1
        sink = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is None:
                    rc = cli_main(argv)
                else:
                    idx = tracer.begin("cli.main")
                    try:
                        rc = cli_main(argv)
                    finally:
                        tracer.end(idx)
        except Exception as e:  # a crash in the program under test is a measured failure
            rc, err = None, f"{type(e).__name__}: {e}"
        else:
            err = f"exit code {rc}"
        times[name].append(time.perf_counter() - t)
        if rc != 0:
            run.failed += 1
            run.check(f"{name}.exit", False, err)
            continue
        if name == "simulate":
            sha = _sha256(noisy)
            observed["simulate_sha256"] = sha
            ok = run.check("simulate.sha256", sha == ref.get("simulate_sha256"), sha)
        elif name == "denoise":
            out, src = load_cube(restored), load_cube(scene)
            ok = run.check("denoise.output", out.shape == src.shape and bool(np.all(np.isfinite(out)))
                           and out.min() >= 0.0 and out.max() <= 1.0, f"shape {out.shape}")
        else:
            with open(report, encoding="utf-8") as f:
                rep = json.load(f)
            got = {k: rep[k] for k in ("psnr_db", "ssim", "sam_rad")}
            observed["eval"] = got
            want = ref.get("eval")
            ok = want is not None and all(
                _close(got[k], want[k], run.tol[f"eval_{k}"]) for k in ("psnr_db", "ssim", "sam_rad")
            )
            run.check("eval.report", ok, json.dumps(got))
        if not ok:
            run.failed += 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    t_import = _import_hcanet()  # first: set-up is timed from a cold process
    spec = WORKLOADS[args.workload][args.size]
    index = args.seed % INPUT_SETS
    seeds = _seeds(index)
    refs = json.loads((HERE / "references.json").read_text())
    run = Run(refs[args.size][args.workload].get(str(index)), refs["tolerances"][args.workload])

    work = Path(args.work)
    make_inputs(spec, work, seeds)
    t = time.perf_counter()
    dataset, net = _construct(spec, work, seeds)
    setup = [t_import + time.perf_counter() - t]
    for _ in range(SETUP_REPEATS - 1):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", args.workload, args.size, str(work), str(index)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        setup.append(float(probe.stdout.strip().splitlines()[-1]))

    from hcanet import cli
    from hcanet import train as train_mod

    tracer = undo = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        undo = layers.install(tracer)
    stamps: list[float] = []
    adam_step = train_mod.adam_step

    def stamped_adam_step(*a, **k):
        adam_step(*a, **k)
        stamps.append(time.perf_counter())

    train_mod.adam_step = stamped_adam_step

    origin = time.perf_counter()
    ckpt, timing, observed = _train_phase(run, spec, dataset, net, work, seeds, stamps)
    times = {"simulate": [], "denoise": [], "eval": []}
    journeys = 0
    if ckpt is not None:
        start = time.perf_counter()
        while (journeys < spec["min_journeys"] or time.perf_counter() - origin < args.seconds
               or time.perf_counter() - start < JOURNEY_SHARE * args.seconds):
            _journey(run, cli.main, spec, work, ckpt, seeds, times, observed, tracer)
            journeys += 1
    measured = time.perf_counter() - origin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    train_mod.adam_step = adam_step
    if undo is not None:
        undo()
    _gradient_probe(run, spec, work, seeds, observed)

    intervals = timing.get("step_intervals", [])
    values = {
        "train_samples_per_s": timing["train_samples"] / timing["train_wall_s"] if timing else float("nan"),
        "step_p50_s": statistics.median(intervals) if intervals else float("nan"),
        "step_p90_s": statistics.quantiles(intervals, n=10)[-1] if len(intervals) > 1 else float("nan"),
        "simulate_s": statistics.median(times["simulate"]) if journeys else float("nan"),
        "denoise_s": statistics.median(times["denoise"]) if journeys else float("nan"),
        "eval_s": statistics.median(times["eval"]) if journeys else float("nan"),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": index,
        "size": args.size,
        "trace": args.trace,
        "measured_s": measured,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "observed": observed,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "samples": {"step_intervals": len(intervals), "journeys": journeys, "setup": len(setup)},
        "raw_s": {"step_intervals": intervals, "setup": setup, **times},
    }
    if tracer is not None:
        units = layers.metric_units()
        result["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in tracer.layer_metrics().items()}
        if args.trace_file:
            tracer.write(args.trace_file, origin)
            result["trace_file"] = args.trace_file
    Path(args.out).write_text(json.dumps(result, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--setup-probe":
        _setup_probe(sys.argv[2], sys.argv[3], sys.argv[4], int(sys.argv[5]))
        sys.exit(0)
    sys.exit(main())
