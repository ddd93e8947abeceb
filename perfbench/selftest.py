#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Runs both workloads untraced and traced at the ``smoke`` size and fails
unless every metric BENCHMARK.json names is printed with its unit, every
output check ran and passed, the traced run wrote its span file and
reported its overhead, and the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import layers
import run
from workload import END_TO_END_UNITS

EXPECTED_CHECKS = {
    "train.completes",
    "train.history_finite",
    "train.final_train_loss",
    "train.final_val_psnr_db",
    "train.gradient",
    "simulate.sha256",
    "denoise.output",
    "eval.report",
}


def _bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    _expect(declared[0] == END_TO_END_UNITS, "BENCHMARK.json end_to_end differs from the metrics measured")
    _expect(declared[1] == layers.metric_units(), "BENCHMARK.json per_layer differs from the metrics measured")
    _expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES), "workload names differ")

    for trace in (0, 1):
        proc = _bench("--workload", "all", "--size", "smoke", "--trace", str(trace))
        _expect(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        _expect(set(last) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        _expect(last["correct"] and last["failed"] == 0 and last["attempted"] > 0,
                f"--trace {trace}: outputs not correct:\n" + "\n".join(lines[:-1]))
        for name in run.WORKLOAD_NAMES:
            for metric, unit in declared[trace].items():
                got = last["metrics"].get(f"{name}/{metric}")
                _expect(got is not None and got["unit"] == unit, f"{name}: {metric} missing or wrong unit")
                _expect(any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines),
                        f"{name}: {metric} not printed with its unit")
            result = json.loads((run.OUT / f"result-{name}-seed0-smoke-trace{trace}.json").read_text())
            ran = {c["name"] for c in result["checks"]}
            _expect(EXPECTED_CHECKS <= ran, f"{name}: checks not run: {sorted(EXPECTED_CHECKS - ran)}")
            if trace:
                _expect((run.OUT / f"trace-{name}-seed0-smoke.json").is_file(), f"{name}: no span file")
                _expect(result["per_layer"]["nn.conv3d_1to1.bwd_s"]["value"] > 0, f"{name}: vjp not timed")
        if trace:
            _expect(proc.stdout.count("overhead") >= 2 * len(END_TO_END_UNITS), "tracing overhead not reported")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.*"):
        shutil.copy(f, bare / "perfbench")
    proc = _bench("--workload", "train-desk", "--size", "smoke", cwd=bare)
    shutil.rmtree(bare)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without sources")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
