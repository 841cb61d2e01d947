#!/usr/bin/env python3
"""Closed-set noise sweep on the blob benchmark: final accuracy of each
arm as the flip ratio grows (the curve behind robustness comparisons)."""

import argparse
import json
import sys
from pathlib import Path

from fedcoreset.cli import parse_sweep_values, sweep
from fedcoreset.config import SweepSpec
from fedcoreset.errors import ConfigurationError
from fedcoreset.presets import blob_benchmark_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", default="0,0.2,0.4,0.6")
    ap.add_argument("--rounds", type=int, default=100)
    ap.add_argument("--out", default="runs/noise_sweep")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = blob_benchmark_config(seed=args.seed, rounds=args.rounds, output_dir=args.out)
    try:
        code = sweep(cfg, SweepSpec("noise.ratio", parse_sweep_values(args.values)))
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code != 0:
        return code

    with open(Path(args.out) / "sweep.json", encoding="utf-8") as fh:
        combined = json.load(fh)
    print(f"{'ratio':>8s}  " + "  ".join(
        f"{arm:>10s}" for arm in sorted(combined["results"][0]["final_accuracy"])
    ))
    for rec in combined["results"]:
        accs = rec["final_accuracy"]
        print(f"{rec['value']:8.2f}  " + "  ".join(
            f"{accs[arm]:10.3f}" for arm in sorted(accs)
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
