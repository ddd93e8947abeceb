"""The scripts under scripts/ run end to end at toy size and print one JSON line per result."""

import json
import os
import subprocess
import sys

import pytest

import hcanet

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hcanet.__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)


def strict_json_lines(text):
    def refuse(token):  # -Infinity and NaN are not JSON
        raise ValueError(f"not JSON: {token}")

    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


@pytest.mark.parametrize("name, args, results", [
    ("make_dataset.py", ("--samples", 20), 1),
    ("train_toy.py", ("--epochs", 1, "--samples", 20), 1),
    ("ablation_study.py", ("--epochs", 1, "--samples", 10), 4),  # one line per variant
], ids=["make_dataset", "train_toy", "ablation_study"])
def test_script_prints_one_json_line_per_result(tmp_path, name, args, results):
    out = run_script(name, "--out", tmp_path / "run", *args)
    assert out.returncode == 0, out.stderr
    lines = strict_json_lines(out.stdout)
    assert len(lines) == results
    assert all(isinstance(doc, dict) for doc in lines)


@pytest.mark.parametrize("name, samples", [("train_toy.py", 10), ("ablation_study.py", 4)])
def test_script_without_a_validation_split_exits_2(tmp_path, name, samples):
    out = run_script(name, "--out", tmp_path / "run", "--epochs", 1, "--samples", samples)
    assert out.returncode == 2
    assert "no validation patch" in out.stderr and out.stdout == ""
    assert not os.path.exists(tmp_path / "run")
