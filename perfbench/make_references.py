#!/usr/bin/env python3
"""Regenerate references.json from the current code.

    python3 perfbench/make_references.py [--size full|smoke]

Runs every workload once per input set with the shortest measuring time and
stores what it observed: the simulate output's SHA-256, the final training
loss and validation PSNR, and the eval report's PSNR/SSIM/SAM.  All input sets
of the chosen size are regenerated together, and the file is written only
when every run has finished.  Tolerances are kept as they are.  Only
regenerate when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json

import run
from workload import INPUT_SETS

PATH = run.HERE / "references.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    env = run.child_env()
    observed = {}
    for name in run.WORKLOAD_NAMES:
        observed[name] = {}
        for index in range(INPUT_SETS):
            result = run.run_workload(name, index, 0, 0, args.size, env)
            if result is None:
                return 1
            observed[name][str(index)] = result["observed"]
            print(name, index, json.dumps(result["observed"]), flush=True)
    refs = json.loads(PATH.read_text())
    for name, sets in observed.items():
        refs[args.size][name] = sets
    PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
