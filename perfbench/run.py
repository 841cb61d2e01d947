"""The fedcoreset benchmark.

    python3 perfbench/run.py --workload blob --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  One operation set is one
``fedcoreset.cli.run`` of the workload's generated config at one experiment
seed (see ``workloads.py``), in a fresh child process with BLAS and OpenMP
pinned to one thread; one operation is one arm run inside it.  The run
cycles over the three experiment seeds of ``--seed`` until ``--seconds``
are spent, every seed at least once, and checks every arm run's outputs
(``check.py``) and that reruns of a seed are byte-identical.

A metric is the median over the reruns of each experiment seed, summed over
the three seeds (memory: the largest of the three medians).  ``--trace 0``
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced reruns and reports the per-layer metrics from the traced ones.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it, ``{"info": ...}``, records the environment, the
interpreter's own resident set, the rerun counts and the spreads.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
from child import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_tmp"
HARD_LIMIT_S = 170.0  # a run must end within 180 s
# The host switches between two speeds ~1.65x apart, in stretches of one to
# tens of seconds (process time equals wall time, so this is not
# descheduling).  Every time is therefore reported at reference speed: wall
# time * REF_NOMINAL_S / the wall time of child.reference_s measured in the
# same process just before and after it.
REF_NOMINAL_S = 0.04

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "arm_s.gcfl": "s",
    "arm_s.fedavg": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, field) for the span-derived ones
LAYER_SPANS = {
    "model.sgd_epochs.s": ("model.sgd_epochs", "s"),
    "model.sgd_epochs.calls": ("model.sgd_epochs", "calls"),
    "model.loss.s": ("model.loss", "s"),
    "model.loss.calls": ("model.loss", "calls"),
    "model.labelwise_validation_grads.s": ("model.labelwise_validation_grads", "s"),
    "model.last_layer_grad_stack.s": ("model.last_layer_grad_stack", "s"),
    "coreset.labelwise_omp_select.s": ("coreset.labelwise_omp_select", "s"),
    "coreset.labelwise_omp_select.calls": ("coreset.labelwise_omp_select", "calls"),
    "coreset.omp_select.s": ("coreset.omp_select", "s"),
    "coreset.omp_select.calls": ("coreset.omp_select", "calls"),
    "federation.aggregate.s": ("federation.aggregate", "s"),
    "federation.aggregate.calls": ("federation.aggregate", "calls"),
    "federation.client_update.self_s": ("federation.client_update", "self_s"),
    "federation.run_round.self_s": ("federation.run_round", "self_s"),
    "federation.run_training.self_s": ("federation.run_training", "self_s"),
    "seeding.derive_seed.s": ("seeding.derive_seed", "s"),
    "seeding.derive_seed.calls": ("seeding.derive_seed", "calls"),
    "data.make_blobs.s": ("data.make_blobs", "s"),
    "data.split_train_val_test.s": ("data.split_train_val_test", "s"),
    "data.dirichlet_partition.s": ("data.dirichlet_partition", "s"),
    "data.inject.s": ("data.inject", "s"),
    "metrics.dataset_fingerprint.s": ("metrics.dataset_fingerprint", "s"),
    "metrics.evaluate_accuracy.s": ("metrics.evaluate_accuracy", "s"),
    "metrics.evaluate_accuracy.calls": ("metrics.evaluate_accuracy", "calls"),
    "metrics.write_round_log.s": ("metrics.write_round_log", "s"),
    "metrics.write_summary.s": ("metrics.write_summary", "s"),
    "cli.run.self_s": ("cli.run", "self_s"),
}
# coreset.random_facility_select.s sums these, so that no workload reads a
# constant 0: only facility calls facility_location_select (the info line
# gives each kernel's own busy time)
OTHER_SELECT = ("coreset.random_select", "coreset.facility_location_select")
LEDGER_METRICS = {
    "ledger.sgd_sample_visits": "sgd_visits",
    "ledger.per_sample_grad_evals": "grad_evals",
    "ledger.params_broadcast": "params_bcast",
    "ledger.grads_broadcast": "grads_bcast",
    "ledger.update_uploads": "uploads",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str], timeout: float) -> dict | None:
    """The child's JSON line, or None when it failed (its stderr is echoed)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"child {argv} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"child {argv} failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def normalise(result: dict) -> None:
    """Scale every time in a child's result to reference speed, in place.

    ``refs[k]`` and ``refs[k + 1]`` bracket set-up (k = 0) and the k-th arm,
    so each of those is scaled by the speed measured around it; the rest of
    run_s and the layer times by the mean of all the reference timings.
    """
    refs = result["refs"]
    scales = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    rest = result["run_s"] - result["setup_s"] - sum(result["arm_s"].values())
    result["wall_run_s"] = result["run_s"]
    result["setup_s"] *= scales[0]
    result["arm_s"] = {label: t * s for (label, t), s in zip(result["arm_s"].items(), scales[1:])}
    result["run_s"] = result["setup_s"] + sum(result["arm_s"].values()) + rest * scale
    if result["traced"]:
        result["trace_overhead_s"] *= scale
        for entry in result["layers"].values():
            entry["s"] *= scale
            entry["self_s"] *= scale


def span(name: str, field: str = "s"):
    """A traced result's value of field for span name, 0 if never called."""
    return lambda r: r["layers"].get(name, {}).get(field, 0)


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class Bench:
    """The reruns of one benchmark run, their checks and their metrics."""

    def __init__(self, workload: str, bench_seed: int, work: Path):
        import workloads

        self.workload = workload
        self.seeds = workloads.experiment_seeds(bench_seed)
        self.cfgs = {s: workloads.make_config(workload, s, str(work / f"seed{s}")) for s in self.seeds}
        self.arms = [(a.label, a.kind) for a in self.cfgs[self.seeds[0]].arms]
        self.shapes = {s: workloads.data_shape(cfg) for s, cfg in self.cfgs.items()}
        self.timings = {
            "run_s": lambda r: r["run_s"],
            "setup_s": lambda r: r["setup_s"],
            "arm_s.gcfl": self._arm_time("gcfl"),
            "arm_s.fedavg": self._arm_time("fedavg"),
        }
        self.recorded = bench_seed in check.RECORDED_BENCH_SEEDS
        path = HERE / "expected" / f"{workload}.json"
        self.expected = json.loads(path.read_text()) if self.recorded else {}
        self.reps: list[dict] = []
        self.reference: dict[int, dict[str, str]] = {}
        self.finals: dict[int, dict[str, dict]] = {}
        self.failures: list[str] = []

    def rep(self, seed: int, traced: bool, timeout: float) -> None:
        cfg = self.cfgs[seed]
        out = Path(cfg.output_dir)
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--workload", self.workload, "--exp-seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        result = run_child(argv + (["--trace"] if traced else []), timeout)
        rep = {"seed": seed, "traced": traced, "wall": time.perf_counter() - start,
               "result": result, "failed": len(self.arms)}
        self.reps.append(rep)
        if result is None:
            self.failures.append(f"seed {seed}: run failed")
            return
        normalise(result)
        try:
            expected = self.expected[str(seed)] if self.recorded else None
            problems = check.check_run(cfg, self.arms, out, *self.shapes[seed], expected)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self.failures.append(f"seed {seed}: outputs unreadable: {exc!r}")
            return
        files = digests(out)
        ref = self.reference.setdefault(seed, files)
        for label, _ in self.arms:
            for name in (f"{label}.csv", "summary.json"):
                if files.get(name) != ref.get(name):
                    problems[label].append(f"{name} differs from the first run of this seed")
        for label, found in problems.items():
            self.failures += [f"seed {seed} {label}: {p}" for p in found]
        rep["failed"] = sum(1 for found in problems.values() if found)
        self.finals.setdefault(
            seed, {label: check.read_log(out / f"{label}.csv")[-1] for label, _ in self.arms}
        )

    def measure(self, seconds: float, traced_too: bool, t0: float) -> None:
        """Rerun for ``seconds`` from now; ``t0`` is when the program started."""
        plan = [(s, t) for s in self.seeds for t in ((False, True) if traced_too else (False,))]
        deadline, hard = time.perf_counter() + seconds, t0 + HARD_LIMIT_S
        for i in itertools.count():
            seed, traced = plan[i % len(plan)]
            if i >= len(plan):
                est = statistics.median(
                    r["wall"] for r in self.reps if (r["seed"], r["traced"]) == (seed, traced)
                )
                if time.perf_counter() + est > min(deadline, hard):
                    break
            self.rep(seed, traced, hard - time.perf_counter())

    def done(self, traced: bool) -> dict[int, list[dict]]:
        """Results of the finished reruns per experiment seed."""
        return {
            s: [r["result"] for r in self.reps
                if r["seed"] == s and r["traced"] == traced and r["result"] is not None]
            for s in self.seeds
        }

    def seed_sum(self, traced: bool, value) -> float:
        """Sum over seeds of the median over that seed's reruns of value(result)."""
        return sum(statistics.median(value(r) for r in rs) for rs in self.done(traced).values())

    def _arm_time(self, kind: str):
        labels = [label for label, k in self.arms if k == kind]
        return lambda r: sum(r["arm_s"][label] for label in labels)

    def end_to_end(self) -> dict[str, float]:
        metrics = {name: self.seed_sum(False, value) for name, value in self.timings.items()}
        metrics["peak_rss_mb"] = max(
            statistics.median(r["maxrss_kb"] for r in rs) / 1024
            for rs in self.done(False).values()
        )
        return metrics

    def spreads(self) -> dict[str, dict[str, float]]:
        """Per end-to-end timing: each seed's (max - min) / median over its reruns."""
        out = {}
        for name, value in self.timings.items():
            out[name] = {}
            for seed, rs in self.done(False).items():
                vals = [value(r) for r in rs]
                out[name][str(seed)] = (max(vals) - min(vals)) / statistics.median(vals)
        return out

    def per_layer(self) -> dict[str, tuple[float, str]]:
        metrics = {
            metric: (self.seed_sum(True, span(*key)), "count" if key[1] == "calls" else "s")
            for metric, key in LAYER_SPANS.items()
        }
        metrics["coreset.random_facility_select.s"] = (sum(self.select_s().values()), "s")
        finals = [self.finals[s] for s in self.seeds]
        for metric, column in LEDGER_METRICS.items():
            total = sum(int(row[column]) for f in finals for row in f.values())
            metrics[metric] = (total, "count")

        # every workload has a gcfl and a fedavg arm (the arm_s metrics need them)
        kinds = {kind: label for label, kind in self.arms}
        gcfl = sum(int(f[kinds["gcfl"]]["sgd_visits"]) + int(f[kinds["gcfl"]]["grad_evals"])
                   for f in finals)
        fedavg = sum(int(f[kinds["fedavg"]]["sgd_visits"]) for f in finals)
        metrics["ledger.compute_cost_ratio"] = (gcfl / fedavg, "ratio")
        metrics["coreset.clean_fraction.gcfl"] = (self.clean_fractions()["gcfl"], "fraction")

        visits = metrics["ledger.sgd_sample_visits"][0]
        evals = metrics["ledger.per_sample_grad_evals"][0]
        metrics["model.sgd_samples_per_s"] = (visits / metrics["model.sgd_epochs.s"][0], "1/s")
        metrics["coreset.grad_evals_per_s"] = (evals / metrics["coreset.labelwise_omp_select.s"][0], "1/s")
        metrics["trace.overhead_s"] = (self.seed_sum(True, lambda r: r["trace_overhead_s"]), "s")
        return metrics

    def select_s(self) -> dict[str, float]:
        """Traced busy time of each of the OTHER_SELECT kernels."""
        return {name: self.seed_sum(True, span(name)) for name in OTHER_SELECT}

    def clean_fractions(self) -> dict[str, float]:
        """Per coreset arm the workload runs: final clean share of the picked
        samples, averaged over the experiment seeds."""
        return {
            kind: statistics.fmean(float(self.finals[s][label]["coreset_clean_fraction"])
                                   for s in self.seeds)
            for label, kind in self.arms if kind in check.CORESET_KINDS
        }

    def paired_trace_diff_s(self) -> float | None:
        """Median over traced reruns of raw wall run_s minus that of the
        untraced rerun of the same seed just before it."""
        diffs = [
            b["result"]["wall_run_s"] - a["result"]["wall_run_s"]
            for a, b in zip(self.reps, self.reps[1:])
            if b["traced"] and not a["traced"] and a["seed"] == b["seed"]
            and a["result"] and b["result"]
        ]
        return statistics.median(diffs) if diffs else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    if not (ROOT / "src" / "fedcoreset" / "__init__.py").is_file():
        print(f"error: no fedcoreset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        env = run_child(["--baseline"], 60.0)
        if env is None:
            return 2
        bench = Bench(args.workload, args.seed, work)
        bench.measure(args.seconds, args.trace == 1, t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    for line in bench.failures:
        print(f"check failed: {line}", file=sys.stderr)
    if any(not rs for rs in bench.done(False).values()) or len(bench.finals) < len(bench.seeds):
        print("error: an experiment seed has no finished run", file=sys.stderr)
        return 1
    if args.trace == 1:
        if any(not rs for rs in bench.done(True).values()):
            print("error: an experiment seed has no finished traced run", file=sys.stderr)
            return 1
        metrics = bench.per_layer()
        extra = {"select_s": bench.select_s(), "trace_paired_wall_diff_s": bench.paired_trace_diff_s()}
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in bench.end_to_end().items()}
        extra = {}

    attempted = len(bench.arms) * len(bench.reps)
    failed = sum(r["failed"] for r in bench.reps)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "experiment_seeds": bench.seeds,
        "env": env,
        "baseline_rss_mb": env["maxrss_kb"] / 1024,
        "reruns": {str(s): len(rs) for s, rs in bench.done(False).items()},
        "traced_reruns": {str(s): len(rs) for s, rs in bench.done(True).items()},
        "spread": bench.spreads(),
        "clean_fraction": bench.clean_fractions(),
        "wall_run_s": bench.seed_sum(False, lambda r: r["wall_run_s"]),
        "reference_s": statistics.median(x for r in bench.reps if r["result"] for x in r["result"]["refs"]),
        "reference_nominal_s": REF_NOMINAL_S,
        "tolerance": {"accuracy_abs": check.ACC_ABS_TOL, "loss_rel": check.LOSS_REL_TOL},
        **extra,
        "elapsed_s": time.perf_counter() - t0,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
