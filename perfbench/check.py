"""Correctness check of one ``cli.run``'s outputs, arm by arm.

An arm run passes when its round log and ``summary.json``

- obey the ledger arithmetic of the protocol (broadcast and upload sizes,
  refresh-only selection cost, full-participation sample visits);
- hold accuracies in [0, 1] and finite losses, with the summary's final
  accuracy and cost ratio agreeing with the round logs;
- match the committed expected outputs (``expected/<workload>.json``) for
  the experiment seeds of ``RECORDED_BENCH_SEEDS``: integer ledger columns
  and coreset clean fractions exactly, accuracies and losses within the
  tolerances below.

Byte-identical reruns of one seed are checked by the caller.  The CSV is
parsed here, not with the package's reader, so the check does not rely on
the code it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

ACC_ABS_TOL = 1e-9  # accuracies are k / n_test, so any real change is >= 1/n_test
LOSS_REL_TOL = 1e-7  # losses are logged with 9 significant digits
LEDGER = ("grad_evals", "sgd_visits", "params_bcast", "grads_bcast", "uploads")
CORESET_KINDS = ("gcfl", "random", "facility_location")
# benchmark seeds whose experiment seeds expected/<workload>.json records
RECORDED_BENCH_SEEDS = range(16)


def read_log(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def param_count(cfg) -> tuple[int, int]:
    """(P, h): parameter count and penultimate width, from the config alone."""
    d, c = cfg.dataset.dim, cfg.dataset.num_blobs
    if cfg.model.arch == "one_hidden":
        h = cfg.model.hidden_dim
        return h * (d + 1) + c * (h + 1), h
    return c * (d + 1), d


def fingerprint(rows: list[dict]) -> dict:
    """What the expected-output file records for one arm run."""
    exact = "\n".join(
        ",".join([r["round"], *(r[k] for k in LEDGER), r["coreset_clean_fraction"]])
        for r in rows
    )
    acc = [float(r["test_accuracy"]) for r in rows]
    loss = [float(r["mean_train_loss"]) for r in rows]
    last = rows[-1]
    return {
        "ledger": [int(last[k]) for k in LEDGER],
        "clean_fraction": last["coreset_clean_fraction"],
        "exact_sha256": hashlib.sha256(exact.encode()).hexdigest(),
        "final_accuracy": acc[-1],
        "mean_accuracy": sum(acc) / len(acc),
        "final_loss": loss[-1],
        "mean_loss": sum(loss) / len(loss),
    }


def _compare(got: dict, want: dict) -> list[str]:
    problems = []
    for key in ("ledger", "clean_fraction", "exact_sha256"):
        if got[key] != want[key]:
            problems.append(f"{key} {got[key]} != expected {want[key]}")
    for key in ("final_accuracy", "mean_accuracy"):
        if abs(got[key] - want[key]) > ACC_ABS_TOL:
            problems.append(f"{key} {got[key]} != expected {want[key]}")
    for key in ("final_loss", "mean_loss"):
        if abs(got[key] - want[key]) > LOSS_REL_TOL * abs(want[key]):
            problems.append(f"{key} {got[key]} != expected {want[key]}")
    return problems


def _ledger_problems(cfg, kind: str, rows: list[dict], chunks: list[int], val_classes: int):
    n_clients = cfg.num_clients
    m = cfg.clients_per_round or n_clients
    full = m == n_clients
    epochs = cfg.local_epochs
    p, h = param_count(cfg)
    with_budget = [n for n in chunks if math.floor(cfg.budget_fraction * n + 0.5) >= 1]
    largest = sum(sorted(chunks)[-m:])
    prev = dict.fromkeys(LEDGER, 0)
    for t, row in enumerate(rows):
        cur = {k: int(row[k]) for k in LEDGER}
        step = {k: cur[k] - prev[k] for k in LEDGER}
        refresh = kind == "gcfl" and t % cfg.refresh_period == 0
        if int(row["round"]) != t:
            yield f"round {row['round']} at row {t}"
        if not 0.0 <= float(row["test_accuracy"]) <= 1.0:
            yield f"round {t}: accuracy {row['test_accuracy']} outside [0, 1]"
        if not math.isfinite(float(row["mean_train_loss"])):
            yield f"round {t}: non-finite loss"
        if step["params_bcast"] != m * p:
            yield f"round {t}: broadcast {step['params_bcast']} != m*P = {m * p}"
        if step["uploads"] % p or not 0 <= step["uploads"] <= m * p:
            yield f"round {t}: upload {step['uploads']} is not k*P for 0 <= k <= m"
        if not 0 <= step["sgd_visits"] <= epochs * largest:
            yield f"round {t}: sgd visits {step['sgd_visits']} out of range"
        if kind in ("fedavg", "fedprox") and full and step["sgd_visits"] != epochs * sum(chunks):
            yield f"round {t}: sgd visits {step['sgd_visits']} != E*n = {epochs * sum(chunks)}"
        want_grads = m * val_classes * (h + 1) if refresh else 0
        if step["grads_bcast"] != want_grads:
            yield f"round {t}: grads broadcast {step['grads_bcast']} != {want_grads}"
        if refresh and full:
            evals_ok = step["grad_evals"] == sum(with_budget)
        elif refresh:
            evals_ok = 0 <= step["grad_evals"] <= largest
        else:
            evals_ok = step["grad_evals"] == 0
        if not evals_ok:
            yield f"round {t}: selection grad evals {step['grad_evals']} out of line"
        frac = row["coreset_clean_fraction"]
        if (frac == "") == (kind in CORESET_KINDS) or (frac and not 0 <= float(frac) <= 1):
            yield f"round {t}: clean fraction {frac!r} wrong for a {kind} arm"
        prev = cur


def check_run(cfg, arms, out: Path, chunks, val_classes, expected) -> dict[str, list[str]]:
    """Problems per arm label; an empty list means the arm run passed.

    ``arms`` lists (label, kind) in run order; ``expected`` maps labels to
    the committed fingerprints for this seed, or is None.
    """
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    logs = {label: read_log(out / f"{label}.csv") for label, _ in arms}
    problems: dict[str, list[str]] = {}
    for label, kind in arms:
        rows = logs[label]
        found = list(_ledger_problems(cfg, kind, rows, chunks, val_classes))
        if len(rows) != cfg.rounds:
            found.append(f"{len(rows)} rounds logged, {cfg.rounds} run")
        elif rows:
            final = summary["arms"][label]["final_accuracy"]
            if format(final, ".9g") != rows[-1]["test_accuracy"]:
                found.append(f"summary accuracy {final} != last round {rows[-1]['test_accuracy']}")
            if expected is not None:
                found += _compare(fingerprint(rows), expected[label])
        problems[label] = found

    kinds = {kind: label for label, kind in arms}
    if "gcfl" in kinds and "fedavg" in kinds and cfg.rounds:
        gcfl, fedavg = logs[kinds["gcfl"]][-1], logs[kinds["fedavg"]][-1]
        want = (int(gcfl["sgd_visits"]) + int(gcfl["grad_evals"])) / int(fedavg["sgd_visits"])
        got = summary["comparisons"]["compute_cost_ratio_gcfl_vs_fedavg"]
        if abs(got - want) > 1e-12 * want:
            problems[kinds["gcfl"]].append(f"summary cost ratio {got} != ledger ratio {want}")
    return problems
