"""One ``cli.run`` of a workload at one experiment seed, in a fresh process.

    python3 perfbench/child.py --workload blob --exp-seed 0 --out DIR [--trace]
    python3 perfbench/child.py --baseline

Prints one JSON line.  Untraced, only ``prepare_experiment`` and each
``run_training`` call are timed; with ``--trace`` every function in
``tracing.FULL`` is.  ``refs`` are the reference kernel's timings just
before set-up, before each arm and after the last (see ``run.normalise``).
``--baseline`` only imports numpy and the package and reports the
interpreter's resident set, plus the Python, numpy and BLAS versions.
Peak memory is the process's ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def reference_s(samples: int = 3) -> float:
    """Median wall time of a fixed numpy kernel that uses nothing of the package.

    Its mix (a Python loop of small-matrix updates, then a few dense
    products) is the kind of work the simulator does, so it slows down with
    the host the way the simulator does; the caller divides by it.
    """
    import numpy as np

    times = []
    for _ in range(samples):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((32, 11))
        w = 0.1 * rng.standard_normal((11, 10))
        a = rng.standard_normal((200, 200))
        start = time.perf_counter()
        for _ in range(1500):
            z = x @ w
            z = np.exp(z - z.max(axis=1, keepdims=True))
            w = w - 1e-3 * (x.T @ (z / z.sum(axis=1, keepdims=True)))
        for _ in range(15):
            a = np.tanh(1e-3 * (a @ a))
        times.append(time.perf_counter() - start)
    return sorted(times)[samples // 2]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_package():
    import fedcoreset

    where = Path(fedcoreset.__file__).resolve().parent
    if where != ROOT / "src" / "fedcoreset":
        raise ImportError(f"fedcoreset imported from {where}, not from this checkout")
    return fedcoreset


def baseline() -> dict:
    import numpy as np

    fedcoreset = _import_package()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fedcoreset": fedcoreset.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "maxrss_kb": _maxrss_kb(),
    }


def one_run(workload: str, exp_seed: int, out: str, traced: bool) -> dict:
    _import_package()
    from fedcoreset import cli

    import tracing
    import workloads

    cfg = workloads.make_config(workload, exp_seed, out)
    # reference timings just before set-up, before each arm and after the
    # last, so that each of those spans lies between two of them
    refs: list[float] = []

    def probe() -> None:
        refs.append(reference_s())

    targets = tracing.FULL if traced else tracing.COARSE
    coarse = [name for _, _, name in tracing.COARSE]
    with tracing.Tracer(targets, probe, probe_before=coarse) as tracer:
        start = time.perf_counter()
        code = cli.run(cfg)
        run_s = time.perf_counter() - start - sum(tracer.durations("probe"))
    if code != 0:
        raise RuntimeError(f"cli.run returned {code}")
    probe()

    arm_times = tracer.durations("federation.run_training")
    layers = tracer.summary() if traced else None
    return {
        "exp_seed": exp_seed,
        "traced": traced,
        "refs": refs,
        "run_s": run_s,
        "setup_s": tracer.durations("federation.prepare_experiment")[0],
        "arm_s": {a.label: s for a, s in zip(cfg.arms, arm_times)},
        "maxrss_kb": _maxrss_kb(),
        "layers": layers,
        # what the wrappers added to run_s: their per-call cost times the calls
        "trace_overhead_s": tracing.call_overhead_s() * sum(
            entry["calls"] for name, entry in layers.items() if name != "probe"
        ) if traced else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--exp-seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.baseline:
        result = baseline()
    else:
        result = one_run(args.workload, args.exp_seed, args.out, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
