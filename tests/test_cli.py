"""CLI surface: exit codes, JSON outputs, manifests, command round trips."""

import json
import math
import os

import numpy as np
import pytest

from hcanet import records
from hcanet.cli import main
from hcanet.data import DatasetManifest, load_cube, save_cube, synthetic_cube
from hcanet.network import HcaNet, NetworkConfig


def write_cube(tmp_path, name, h=24, w=24, b=4, seed=3):
    path = str(tmp_path / name)
    save_cube(synthetic_cube(h, w, b, seed=seed), path)
    return path


def tiny_checkpoint(tmp_path, bands=4, zero_tail=False, seed=0):
    cfg = NetworkConfig(bands=bands, base_width=8, blocks_per_level=(1, 1), refinement_blocks=1)
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


def test_simulate_into_a_missing_directory_exits_3(tmp_path, capsys):
    src = write_cube(tmp_path, "clean.hsic")
    code = main(["simulate", "--in", src, "--case", "g30", "--out", str(tmp_path / "no" / "x.hsic")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)], ids=["negative", "past_64_bits"])
def test_simulate_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # the Philox key is the seed's low 64 bits, so -1 would write the cube of 2**64 - 1
    src = write_cube(tmp_path, "clean.hsic")
    out = str(tmp_path / "x.hsic")
    assert main(["simulate", "--in", src, "--case", "g30", "--seed", seed, "--out", out]) == 2
    assert "seed" in capsys.readouterr().err
    assert not os.path.exists(out)


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


def checkpoint_with_header(tmp_path, version=None, **fields):
    """A checkpoint file whose config is the 4-band paper preset with ``fields`` set,
    written as raw JSON so the config need not be valid, followed by 64 zero bytes."""
    import struct

    from hcanet.network import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, paper_config

    doc = json.loads(records.dumps(paper_config(4)))
    doc.update(fields)
    cfg = json.dumps(doc).encode("utf-8")
    head = struct.pack("<II", CHECKPOINT_VERSION if version is None else version, len(cfg))
    bad = tmp_path / "bad.hcaw"
    bad.write_bytes(CHECKPOINT_MAGIC + head + cfg + b"\x00" * 64)
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
    model = checkpoint_with_header(tmp_path, blocks_per_level=[10**6])
    code, peak = denoise_peak(tmp_path, model)
    assert code == 3
    assert "blocks" in capsys.readouterr().err
    # building the blank network first would allocate gigabytes
    assert peak < 1 << 20


@pytest.mark.parametrize("fields", [
    dict(base_width=18),  # base_width must be divisible by the 4 shuffle groups
    dict(shuffle_groups=0),  # a version-2 config names no shuffle_groups or gamma
    dict(gamma=1.5),
    dict(blocks_per_level=[2.5, 2, 2, 2]),
    dict(msfn_enabled="false"),  # a string would pass for true
    dict(bands=True),  # a bool would pass for 1
], ids=["indivisible", "zero_groups", "float_gamma", "float_blocks", "string_switch", "bool_bands"])
def test_denoise_checkpoint_with_an_invalid_config_exits_3(tmp_path, capsys, fields):
    model = checkpoint_with_header(tmp_path, **fields)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    assert main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 3
    assert "bad NetworkConfig" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config_header", "tensor_name"])
def test_denoise_checkpoint_that_is_not_utf8_exits_3(tmp_path, capsys, where):
    import struct

    model = tiny_checkpoint(tmp_path)
    with open(model, "r+b") as f:
        (clen,) = struct.unpack("<I", f.read(12)[8:])
        # the header's opening brace, or the first byte of the first tensor's name
        f.seek(12 if where == "config_header" else 12 + clen + 8)
        f.write(b"\xff")
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    assert main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_denoise_version_1_checkpoint_exits_3(tmp_path, capsys):
    # the version-1 header as the last version-1 writer wrote it for this preset
    model = checkpoint_with_header(tmp_path, version=1, gamma=2, levels=4, norm_enabled=True, shuffle_groups=4)
    src = write_cube(tmp_path, "in.hsic", h=16, w=16, b=4)
    assert main(["denoise", "--model", model, "--in", src, "--out", str(tmp_path / "o.hsic")]) == 3
    assert "unsupported checkpoint version 1" in capsys.readouterr().err


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
            "blocks_per_level": [1, 1],
            "refinement_blocks": 1,
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
    assert manifest["configs"]["network"]["blocks_per_level"] == [1, 1, 1]
    assert "levels" not in manifest["configs"]["network"]
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
    ("network", "gamma", 2, 2),  # the block's constants are not settings either
    ("network", "levels", 2, 2),  # levels is len(blocks_per_level)
    ("network", "norm_enabled", True, 2),
    ("network", "shuffle_groups", 4, 2),
    ("network", "msfn_enabled", "false", 2),  # would build the full MSFN network
    ("network", "bands", True, 2),  # would pass as 1
    ("train", "epochs", True, 2),  # would train one epoch
    ("train", "batch_size", True, 2),
    ("train", "seed", True, 2),
    ("train", "seed", -1, 2),  # the Philox key is unsigned
    ("train", "seed", 1 << 64, 2),  # would alias seed 0
    ("train", "lr0", True, 2),
    ("train", "lr0", math.inf, 2),
    ("noise", "seed", -1, 2),
    ("noise", "seed", 1 << 64, 2),
    ("noise", "sigma", True, 2),
], ids=["noise_list", "train_string", "blocks_int", "float_epochs", "float_batch_size",
        "removed_train_key", "loss_section", "float_noise_seed", "removed_network_gamma",
        "removed_network_levels", "removed_network_norm_enabled", "removed_network_shuffle_groups",
        "string_network_switch", "bool_network_bands", "bool_epochs", "bool_batch_size", "bool_train_seed",
        "negative_train_seed", "huge_train_seed", "bool_lr0", "infinite_lr0", "negative_noise_seed",
        "huge_noise_seed", "bool_sigma"])
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
    assert err.startswith("error: ") and (key or section) in err and "training:" not in err


def test_train_negative_seed_flag_exits_2(tmp_path, capsys):
    data_path, config_path = train_fixture(tmp_path)
    out = str(tmp_path / "r")
    assert main(["train", "--config", config_path, "--data", data_path, "--out", out, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "training:" not in err


@pytest.mark.parametrize("patch_size, rotations", [
    ((16, 16, 4), ("identity",)),  # 16 columns; stripes need 20
], ids=["narrow"])
def test_train_narrow_patches_fail_before_the_network_is_built(tmp_path, capsys, patch_size, rotations):
    cube = write_cube(tmp_path, "train.hsic", h=24, w=24, b=4, seed=3)
    data_path = str(tmp_path / "data.json")
    DatasetManifest(cubes=(cube,), patch_size=patch_size, scales=(1.0,), rotations=rotations,
                    samples=8, seed=5).save(data_path)
    out = str(tmp_path / "r")
    assert main(["train", "--data", data_path, "--out", out, "--case", "case2", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert "20 columns" in err and "training:" not in err


def write_manifest(tmp_path, drop=(), **fields):
    # written by hand: DatasetManifest itself refuses the values these tests feed the CLI
    cube = write_cube(tmp_path, "train.hsic", h=40, w=40, b=4, seed=3)
    doc = {"cubes": [cube], "patch_size": [16, 16, 4], "scales": [1.0], "rotations": ["identity"],
           "samples": 8, "seed": 5, "val_fraction": 0.0}
    doc.update(fields)
    for key in drop:
        del doc[key]
    path = str(tmp_path / "data.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def test_train_manifest_without_patch_size_exits_3(tmp_path, capsys):
    # patch_size has no default: the patch shape is the one thing a dataset cannot guess
    data_path = write_manifest(tmp_path, drop=("patch_size",))
    assert main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert "patch_size" in err and "training:" not in err


@pytest.mark.parametrize("field", ["cubes", "scales", "rotations"])
def test_train_manifest_with_a_null_list_exits_3(tmp_path, capsys, field):
    # null is no list at all, a malformed file rather than an empty selection
    data_path = write_manifest(tmp_path, **{field: None})
    assert main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "training:" not in err


def test_train_manifest_that_is_not_utf8_exits_3(tmp_path, capsys):
    data_path = write_manifest(tmp_path)
    with open(data_path, "rb") as f:
        raw = f.read()
    with open(data_path, "wb") as f:
        f.write(b"\xff\xfe" + raw)
    assert main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "training:" not in err


@pytest.mark.parametrize("field", ["rotations", "scales"])
def test_train_empty_augmentation_list_exits_2(tmp_path, capsys, field):
    data_path = write_manifest(tmp_path, **{field: []})
    assert main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "training:" not in err


@pytest.mark.parametrize("field, value", [
    ("seed", -1),  # the Philox key is unsigned
    ("seed", 1.5),  # would train with key 1 while the manifest records 1.5
    ("samples", "8"),
    ("patch_size", [16, 16]),
    ("cubes", [1]),
    ("scales", [True]),  # would pass as factor 1
    ("val_fraction", False),
], ids=["negative_seed", "float_seed", "string_samples", "two_patch_extents", "int_cube_name", "bool_scale",
        "bool_val_fraction"])
def test_train_mistyped_manifest_field_exits_2(tmp_path, capsys, field, value):
    data_path = write_manifest(tmp_path, **{field: value})
    assert main(["train", "--data", data_path, "--out", str(tmp_path / "r"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "training:" not in err


def test_train_non_square_patch_with_rotation_exits_2(tmp_path, capsys):
    # a quarter turn of a 24x32 patch is 32x24, and the batch could not be stacked
    data_path = write_manifest(tmp_path, patch_size=[24, 32, 4], rotations=["identity", "rot90"])
    out = str(tmp_path / "r")
    assert main(["train", "--data", data_path, "--out", out, "--case", "g30", "--batch-size", "4"]) == 2
    err = capsys.readouterr().err
    assert "square" in err and "training:" not in err
    assert not os.path.exists(os.path.join(out, "log.jsonl"))


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


def test_model_commands_load_no_scipy():
    # the runtime is numpy only: GELU brings its own erf and SSIM its own windowed means
    import subprocess
    import sys

    import hcanet

    src = os.path.dirname(os.path.dirname(os.path.abspath(hcanet.__file__)))
    code = (
        "import sys, numpy as np\n"
        "from hcanet import metrics, tensor\n"
        "tensor.gelu(tensor.Tensor(np.linspace(-3, 3, 7)))\n"
        "x = np.random.default_rng(0).random((16, 16, 2))\n"
        "metrics.evaluate(x, np.clip(x + 0.1, 0, 1))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def package_trees():
    """(file name, parsed module) for every module of the installed package."""
    import ast

    import hcanet

    pkg = os.path.dirname(os.path.abspath(hcanet.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as f:
                yield name, ast.parse(f.read(), name)


def test_package_imports_only_stdlib_and_numpy():
    # a static guard, so that a runtime dependency cannot creep back in
    import ast
    import sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "hcanet"}
    found = {}
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found.update({f"{name}: {r}": r for r in roots if r not in allowed})
    assert not found, sorted(found)


def test_only_records_encodes_json():
    # one canonical encoding: every record the package writes goes through hcanet.records
    import ast

    found = []
    for name, tree in package_trees():
        if name == "records.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                if isinstance(node.value, ast.Name) and node.value.id == "json":
                    found.append(f"{name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{name}:{node.lineno}")
    assert not found, found

