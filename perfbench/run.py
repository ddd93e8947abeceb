#!/usr/bin/env python3
"""hcanet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 45 --trace 0

Runs from the root of a source checkout; the package is imported from
``src``.  Each workload runs in a child process with its BLAS and hcanet thread
counts pinned.  stdout gets an environment record, one line per metric
(name, value, unit), the output checks, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a span trace,
plus the tracing overhead against the last untraced result of the same
workload and seed, if that result came from the same sources and environment.
``--workload all`` runs every workload in turn.

Results, traces and scratch inputs go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170  # the least time a workload child gets; see child_timeout()
BLAS_THREADS = 1  # steadier step times than the default on a 2-core machine
WORKLOAD_NAMES = ("train-desk", "restore-paper256")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_sha256() -> str:
    """SHA-256 over the package sources and the benchmark's own files."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "references.json"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_timeout(seconds: float) -> float:
    """How long a workload child may run.

    Input generation, the set-up probes and training come on top of the
    measured ``seconds``, and the last journey and tracing run past them.
    """
    return max(CHILD_TIMEOUT_S, 1.5 * seconds + 100)


def child_env() -> dict[str, str]:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["HCANET_THREADS"] = "0"  # single-threaded batch assembly, the bit-reproducible mode
    return env


def environment(env: dict[str, str]) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy, sys; b = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
         "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
         " 'scipy': scipy.__version__, 'blas': b.get('name'), 'blas_version': b.get('version')}))"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    record = json.loads(probe.stdout)
    record.update(
        git_sha=_git_sha(),
        blas_threads=int(env["OPENBLAS_NUM_THREADS"]),
        hcanet_threads=env["HCANET_THREADS"],
        nproc=os.cpu_count(),
        cpu_model=_cpu_model(),
    )
    return record


def _load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str, env: dict,
                 stamp: dict | None = None) -> dict | None:
    """Run one workload in a child process; returns its result, or None if the child died.

    ``stamp`` (sources and environment) is stored in the result file, so that
    results are only compared with results of the same stamp.
    """
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-{size}"
    result_path = OUT / f"result-{stem}-trace{trace}.json"
    work = OUT / f"work-{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--size", size,
           "--out", str(result_path), "--work", str(work)]
    if trace:
        cmd += ["--trace-file", str(OUT / f"trace-{stem}.json")]
    timeout = child_timeout(seconds)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        print(f"error: workload {name} ran past {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    result = _load(result_path)
    if result is not None and stamp is not None:
        result["stamp"] = stamp
        result_path.write_text(json.dumps(result, indent=1))
    return result


def report(result: dict, trace: int) -> dict:
    """Print one workload's metrics and checks; returns the metrics for the JSON line."""
    name = result["workload"]
    print(f"workload {name}  seed {result['seed']}  input set {result['input_set']}  size {result['size']}  "
          f"measured {result['measured_s']:.1f} s  samples {json.dumps(result['samples'])}")
    e2e = result["end_to_end"]
    metrics = result["per_layer"] if trace else e2e
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"  {'error_rate':34s} {rate:.6g} ratio  ({result['failed']} failed of {result['attempted']})")
    bad: dict[str, list] = {}
    for c in result["checks"]:
        if not c["ok"]:
            bad.setdefault(c["name"], []).append(c["detail"])
    passed = len(result["checks"]) - sum(len(v) for v in bad.values())
    print(f"  checks: {passed} of {len(result['checks'])} passed")
    for check, details in bad.items():
        print(f"    FAILED {check} x{len(details)}: {details[0]}")
    if trace:
        print("  end-to-end while traced, and tracing overhead (traced minus untraced):")
        base = _load(OUT / f"result-{name}-seed{result['seed']}-{result['size']}-trace0.json")
        if base is not None and base.get("stamp") != result.get("stamp"):
            base = None  # from other sources or another environment
        for key, m in e2e.items():
            line = f"    {key:32s} {m['value']:.6g} {m['unit']}"
            if base is not None:
                d = m["value"] - base["end_to_end"][key]["value"]
                line += f"  overhead {d:+.4g} {m['unit']}"
            print(line)
        if base is None:
            print("    (no untraced result for this workload and seed from these sources and this environment:"
                  " run with --trace 0 first)")
        if result.get("trace_file"):
            print(f"  spans written to {os.path.relpath(result['trace_file'])}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="hcanet benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "src" / "hcanet" / "__init__.py").is_file():
        print(f"error: no hcanet sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    env = child_env()
    record = environment(env)
    print("environment " + json.dumps(record, sort_keys=True))
    stamp = {"source_sha256": source_sha256(), **record}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    t = time.perf_counter()
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.size, env, stamp)
        if result is None:
            return 1
        m = report(result, args.trace)
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["failed"] == 0 and all(c["ok"] for c in result["checks"])
    print(f"total wall {time.perf_counter() - t:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
