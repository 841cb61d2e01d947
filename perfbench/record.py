"""Write the expected outputs the benchmark checks against.

    python3 perfbench/record.py --workload blob

Runs each experiment seed of the benchmark seeds ``check.RECORDED_BENCH_SEEDS``
once, the way the benchmark does, and writes
``perfbench/expected/<workload>.json``: per experiment seed and arm, the
fingerprint ``check.fingerprint`` takes of the round log.  Only re-record
when a change is meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(run.ROOT / "src"))
    import check
    import workloads

    expected = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    try:
        for bench_seed in check.RECORDED_BENCH_SEEDS:
            for seed in workloads.experiment_seeds(bench_seed):
                cfg = workloads.make_config(args.workload, seed, str(work / f"seed{seed}"))
                argv = ["--workload", args.workload, "--exp-seed", str(seed), "--out", cfg.output_dir]
                if run.run_child(argv, 600.0) is None:
                    return 1
                out = Path(cfg.output_dir)
                arms = [(a.label, a.kind) for a in cfg.arms]
                problems = check.check_run(cfg, arms, out, *workloads.data_shape(cfg), None)
                if any(problems.values()):
                    print(f"seed {seed}: {problems}", file=sys.stderr)
                    return 1
                expected[str(seed)] = {
                    a.label: check.fingerprint(check.read_log(out / f"{a.label}.csv"))
                    for a in cfg.arms
                }
                print(f"{args.workload} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "expected" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
