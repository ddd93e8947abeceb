"""CLI surface: exit codes, JSON outputs, manifests, command round trips."""

import json
import math
import os

import numpy as np
import pytest

from hcanet.cli import main
from hcanet.data import DatasetManifest, load_cube, save_cube, synthetic_cube
from hcanet.network import HcaNet, NetworkConfig


def write_cube(tmp_path, name, h=24, w=24, b=4, seed=3):
    path = str(tmp_path / name)
    save_cube(synthetic_cube(h, w, b, seed=seed), path)
    return path


def tiny_checkpoint(tmp_path, bands=4, zero_tail=False, seed=0):
    cfg = NetworkConfig(
        bands=bands,
        base_width=8,
        levels=2,
        blocks_per_level=(1, 1),
        refinement_blocks=1,
        shuffle_groups=4,
    )
    net = HcaNet(cfg, seed=seed)
    if zero_tail:
        for name, p in net.named_params():
            if name.startswith("tail."):
                p.data[:] = 0.0
    path = str(tmp_path / "model.hcaw")
    net.save(path)
    return path


def stdout_json(capsys):
    out = capsys.readouterr().out.strip()
    return json.loads(out)


# -- simulate -----------------------------------------------------------------


def test_simulate_writes_cube_report_and_manifest(tmp_path, capsys):
    src = write_cube(tmp_path, "clean.hsic")
    out = str(tmp_path / "noisy.hsic")
    code = main(["simulate", "--in", src, "--case", "g30", "--seed", "3", "--out", out])
    assert code == 0
    doc = stdout_json(capsys)
    assert doc["out"] == out and doc["case"] == "g30"
    assert os.path.exists(out)
    assert os.path.exists(doc["report"])
    assert os.path.exists(doc["manifest"])
    report = json.load(open(doc["report"], encoding="utf-8"))
    assert report["kind"] == "gaussian" and report["gaussian"][0]["sigma"] == 30.0
    manifest = json.load(open(doc["manifest"], encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert manifest["configs"]["noise"]["sigma"] == 30.0
    assert len(manifest["inputs"]["in"]["sha256"]) == 64


def test_simulate_same_seed_is_byte_identical(tmp_path, capsys):
    src = write_cube(tmp_path, "clean.hsic")
    out_a, out_b = str(tmp_path / "a.hsic"), str(tmp_path / "b.hsic")
    assert main(["simulate", "--in", src, "--case", "case3", "--seed", "11", "--out", out_a]) == 0
    assert main(["simulate", "--in", src, "--case", "case3", "--seed", "11", "--out", out_b]) == 0
    capsys.readouterr()
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_simulate_invalid_case_exits_2_with_usage(tmp_path, capsys):
    src = write_cube(tmp_path, "clean.hsic")
    code = main(["simulate", "--in", src, "--case", "g999", "--out", str(tmp_path / "x.hsic")])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_simulate_missing_input_exits_3(tmp_path, capsys):
    code = main(
        ["simulate", "--in", str(tmp_path / "nope.hsic"), "--case", "g30", "--out", str(tmp_path / "x.hsic")]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_simulate_lying_header_exits_3(tmp_path, capsys):
    import struct

    from hcanet.data import CUBE_MAGIC, CUBE_VERSION, DTYPE_F32LE

    src = tmp_path / "lying.hsic"  # valid header claiming 65535x65535x31, no payload
    src.write_bytes(CUBE_MAGIC + struct.pack("<IIIII", CUBE_VERSION, 65535, 65535, 31, DTYPE_F32LE))
    code = main(["simulate", "--in", str(src), "--case", "g30", "--out", str(tmp_path / "x.hsic")])
    assert code == 3
    assert "expected 532559691900" in capsys.readouterr().err


def test_simulate_g30_matches_closed_form_psnr(tmp_path, capsys):
    src = write_cube(tmp_path, "clean.hsic", h=64, w=64, b=8, seed=1)
    out = str(tmp_path / "noisy.hsic")
    rep = str(tmp_path / "rep.json")
    assert main(["simulate", "--in", src, "--case", "g30", "--seed", "5", "--out", out]) == 0
    assert main(["eval", "--pred", out, "--ref", src, "--out", rep]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    expected = 10 * math.log10(1.0 / (30.0 / 255.0) ** 2)
    assert doc["psnr_db"] == pytest.approx(expected, abs=0.3)


# -- eval ---------------------------------------------------------------------


def test_eval_identity_hits_caps(tmp_path, capsys):
    src = write_cube(tmp_path, "x.hsic")
    out = str(tmp_path / "report.json")
    code = main(["eval", "--pred", src, "--ref", src, "--out", out])
    assert code == 0
    doc = stdout_json(capsys)
    assert doc["psnr_db"] == 100.0
    assert doc["ssim"] == pytest.approx(1.0, abs=1e-9)
    assert doc["sam_rad"] < 1e-6
    assert json.load(open(out, encoding="utf-8")) == doc
    assert os.path.exists(out + ".manifest.json")


def test_eval_shape_mismatch_exits_2(tmp_path, capsys):
    a = write_cube(tmp_path, "a.hsic", h=24, w=24, b=4)
    b = write_cube(tmp_path, "b.hsic", h=24, w=24, b=6)
    assert main(["eval", "--pred", a, "--ref", b, "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


# -- denoise ------------------------------------------------------------------


def test_denoise_zero_tail_returns_input(tmp_path, capsys):
    model = tiny_checkpoint(tmp_path, zero_tail=True)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    out = str(tmp_path / "out.hsic")
    code = main(["denoise", "--model", model, "--in", src, "--out", out])
    assert code == 0
    capsys.readouterr()
    assert np.array_equal(load_cube(out), load_cube(src))
    assert os.path.exists(out + ".manifest.json")


def test_denoise_output_is_clipped(tmp_path, capsys):
    model = tiny_checkpoint(tmp_path)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    out = str(tmp_path / "out.hsic")
    assert main(["denoise", "--model", model, "--in", src, "--out", out]) == 0
    capsys.readouterr()
    restored = load_cube(out)
    assert restored.min() >= 0.0 and restored.max() <= 1.0


def test_denoise_band_mismatch_exits_2(tmp_path, capsys):
    model = tiny_checkpoint(tmp_path, bands=4)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=6)
    code = main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")])
    assert code == 2
    err = capsys.readouterr().err
    assert "expects 4" in err and "has 6" in err


def test_denoise_indivisible_extent_exits_2(tmp_path, capsys):
    model = tiny_checkpoint(tmp_path)
    cube = synthetic_cube(15, 16, 4, seed=2)
    src = str(tmp_path / "odd.hsic")
    save_cube(cube, src)
    assert main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 2
    capsys.readouterr()


def test_denoise_corrupt_checkpoint_exits_3(tmp_path, capsys):
    bad = str(tmp_path / "bad.hcaw")
    with open(bad, "wb") as f:
        f.write(b"not a checkpoint")
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    assert main(["denoise", "--model", bad, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 3
    capsys.readouterr()


def checkpoint_with_header(tmp_path, **fields):
    """A checkpoint file whose config is the 4-band paper preset with ``fields`` set,
    written as raw JSON so the config need not be valid, followed by 64 zero bytes."""
    import struct

    from hcanet.network import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, paper_config

    doc = json.loads(paper_config(4).to_json())
    doc.update(fields)
    cfg = json.dumps(doc).encode("utf-8")
    bad = tmp_path / "bad.hcaw"
    bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(cfg)) + cfg + b"\x00" * 64)
    return str(bad)


def denoise_peak(tmp_path, model):
    """Exit code and tracemalloc peak of ``hcanet denoise`` with this model on a small cube."""
    import tracemalloc

    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    tracemalloc.start()
    try:
        code = main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def test_denoise_checkpoint_claiming_a_huge_network_exits_3(tmp_path, capsys):
    code, peak = denoise_peak(tmp_path, checkpoint_with_header(tmp_path, base_width=2**16))
    assert code == 3
    assert "implies" in capsys.readouterr().err
    # a network drawn for this config would hold about 10**14 parameters
    assert peak < 1 << 20


def test_denoise_checkpoint_claiming_a_million_blocks_exits_3(tmp_path, capsys):
    model = checkpoint_with_header(tmp_path, levels=1, blocks_per_level=[10**6])
    code, peak = denoise_peak(tmp_path, model)
    assert code == 3
    assert "blocks" in capsys.readouterr().err
    # building the blank network first would allocate gigabytes
    assert peak < 1 << 20


@pytest.mark.parametrize("fields", [
    dict(base_width=18, shuffle_groups=4),  # base_width must be divisible by shuffle_groups
    dict(shuffle_groups=0),
    dict(gamma=1.5),
    dict(blocks_per_level=[2.5, 2, 2, 2]),
], ids=["indivisible", "zero_groups", "float_gamma", "float_blocks"])
def test_denoise_checkpoint_with_an_invalid_config_exits_3(tmp_path, capsys, fields):
    model = checkpoint_with_header(tmp_path, **fields)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    assert main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 3
    assert "bad NetworkConfig" in capsys.readouterr().err


# -- gradcheck ----------------------------------------------------------------


def test_gradcheck_cafm_exits_0(capsys):
    assert main(["gradcheck", "--preset", "cafm"]) == 0
    doc = stdout_json(capsys)
    assert doc["ok"] is True and doc["max_rel_err"] < doc["tolerance"]
    assert doc["preset"] == "cafm"


def test_gradcheck_unknown_preset_exits_2(capsys):
    assert main(["gradcheck", "--preset", "everything"]) == 2
    capsys.readouterr()


# -- train --------------------------------------------------------------------


def train_fixture(tmp_path, val_fraction=0.1):
    cube = write_cube(tmp_path, "train.hsic", h=24, w=24, b=4, seed=3)
    manifest = DatasetManifest(
        cubes=(cube,),
        patch_size=(16, 16, 4),
        scales=(1.0,),
        rotations=("identity",),
        samples=20,
        seed=5,
        val_fraction=val_fraction,
    )
    data_path = str(tmp_path / "data.json")
    manifest.save(data_path)
    config = {
        "train": {"epochs": 5, "batch_size": 4, "lr0": 1e-3, "lr_final": 1e-5},
        "network": {
            "bands": 4,
            "base_width": 8,
            "levels": 2,
            "blocks_per_level": [1, 1],
            "refinement_blocks": 1,
            "shuffle_groups": 4,
        },
        "noise": {"kind": "gaussian", "sigma": 30.0, "seed": 9},
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return data_path, config_path


def test_train_end_to_end_with_flag_precedence(tmp_path, capsys):
    data_path, config_path = train_fixture(tmp_path)
    out = str(tmp_path / "run")
    code = main(
        ["train", "--config", config_path, "--data", data_path, "--out", out, "--epochs", "2", "--seed", "5"]
    )
    assert code == 0
    doc = stdout_json(capsys)
    assert doc["epochs"] == 2  # flag beats the config file's 5
    assert os.path.exists(doc["log"]) and os.path.exists(doc["last"])
    assert doc["best_val_psnr_db"] is not None
    records = [json.loads(l) for l in open(doc["log"], encoding="utf-8")]
    assert len(records) == 2
    manifest = json.load(open(doc["manifest"], encoding="utf-8"))
    assert manifest["configs"]["network"]["base_width"] == 8
    assert manifest["configs"]["train"]["epochs"] == 2
    assert manifest["configs"]["noise"]["kind"] == "gaussian"
    assert len(manifest["inputs"]["data"]["sha256"]) == 64


def test_train_without_config_uses_small_preset(tmp_path, capsys):
    data_path, _ = train_fixture(tmp_path)
    out = str(tmp_path / "defaults")
    code = main(["train", "--data", data_path, "--out", out, "--case", "g30", "--epochs", "1"])
    assert code == 0
    doc = stdout_json(capsys)
    manifest = json.load(open(doc["manifest"], encoding="utf-8"))
    assert manifest["configs"]["network"]["bands"] == 4
    assert manifest["configs"]["network"]["levels"] == 3
    assert manifest["configs"]["noise"] == {
        **manifest["configs"]["noise"],
        "kind": "gaussian",
        "sigma": 30.0,
    }


@pytest.mark.parametrize("val_fraction", [0.0, 0.1])
def test_train_manifest_lists_only_written_outputs(tmp_path, capsys, val_fraction):
    # without a validation split no best.hcaw is written, so none is listed
    data_path, config_path = train_fixture(tmp_path, val_fraction)
    out = str(tmp_path / "run")
    assert main(["train", "--config", config_path, "--data", data_path, "--out", out, "--epochs", "1"]) == 0
    doc = stdout_json(capsys)
    outputs = json.load(open(doc["manifest"], encoding="utf-8"))["outputs"]
    assert all(os.path.exists(p) for p in outputs)
    assert sorted(outputs) == sorted(p for p in (doc["log"], doc["best"], doc["last"]) if p is not None)
    assert (doc["best"] is None) == (val_fraction == 0.0)


def test_train_band_mismatch_exits_2(tmp_path, capsys):
    data_path, config_path = train_fixture(tmp_path)
    cfg = json.load(open(config_path, encoding="utf-8"))
    cfg["network"]["bands"] = 6
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    code = main(["train", "--config", config_path, "--data", data_path, "--out", str(tmp_path / "r")])
    assert code == 2
    assert "band mismatch" in capsys.readouterr().err


def test_train_unknown_section_exits_2(tmp_path, capsys):
    data_path, config_path = train_fixture(tmp_path)
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump({"optimizer": {}}, f)
    code = main(["train", "--config", config_path, "--data", data_path, "--out", str(tmp_path / "r")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("section, key, value, code", [
    ("noise", None, [1, 2], 3),  # a section that is not a JSON object is a malformed file
    ("train", None, "x", 3),
    ("network", "blocks_per_level", 5, 2),
    ("train", "epochs", 1.5, 2),
    ("train", "batch_size", 1.5, 2),
    ("train", "beta1", 0.9, 2),  # the Adam constants are not settings
    ("loss", None, {"lambda_grad": 0.01}, 2),  # nor is the loss weight
    ("noise", "seed", 1.5, 2),
], ids=["noise_list", "train_string", "blocks_int", "float_epochs", "float_batch_size",
        "removed_train_key", "loss_section", "float_noise_seed"])
def test_train_malformed_config_exits_with_a_message(tmp_path, capsys, section, key, value, code):
    data_path, config_path = train_fixture(tmp_path)
    cfg = json.load(open(config_path, encoding="utf-8"))
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    assert main(["train", "--config", config_path, "--data", data_path, "--out", str(tmp_path / "r")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (key or section) in err


@pytest.mark.parametrize("patch_size, rotations", [
    ((16, 16, 4), ("identity",)),  # 16 columns; stripes need 20
    ((16, 24, 4), ("identity", "rot90")),  # rot90 turns the 16 rows into columns
], ids=["narrow", "narrow_when_rotated"])
def test_train_narrow_patches_fail_before_the_network_is_built(tmp_path, capsys, patch_size, rotations):
    cube = write_cube(tmp_path, "train.hsic", h=24, w=24, b=4, seed=3)
    data_path = str(tmp_path / "data.json")
    DatasetManifest(cubes=(cube,), patch_size=patch_size, scales=(1.0,), rotations=rotations,
                    samples=8, seed=5).save(data_path)
    out = str(tmp_path / "r")
    assert main(["train", "--data", data_path, "--out", out, "--case", "case2", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert "20 columns" in err and "training:" not in err


def test_train_missing_data_exits_3(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "none.json"), "--out", str(tmp_path / "r")])
    assert code == 3
    capsys.readouterr()


def test_train_bad_config_value_exits_2(tmp_path, capsys):
    data_path, _ = train_fixture(tmp_path)
    code = main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "0"])
    assert code == 2
    capsys.readouterr()


# -- wiring -------------------------------------------------------------------


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "hcanet" in capsys.readouterr().out


def test_import_loads_no_scipy_submodule():
    # scipy.special (GELU) and scipy.ndimage (SSIM) are imported on first use,
    # so commands that never call them do not pay for the import
    import subprocess
    import sys

    import hcanet

    src = os.path.dirname(os.path.dirname(os.path.abspath(hcanet.__file__)))
    code = "import sys, hcanet.cli; print(sorted(m for m in ('scipy.special', 'scipy.ndimage') if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
