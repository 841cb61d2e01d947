"""Experiment runner CLI.

    fedcoreset run [--config exp.ini] [--dry-run] [--key value ...]
    fedcoreset sweep [--config exp.ini] --param noise.ratio --values 0,0.2,0.4 [...]
    fedcoreset sweep [--config exp.ini] --param seed --values 0,1,2,3,4 [...]

Any config key can be overridden with ``--<key> <value>``, using dots for
the nested groups (``--noise.ratio 0.4``, ``--dataset.dim 20``, ``--seed 7``,
``--output_dir runs/demo``); a flag beats the config file, and a run without
``--config`` starts from the defaults.  A sweep takes any key but
``output_dir`` as ``--param``, and applies each ``--values`` entry as
``--<param> <entry>`` is.  Every arm of a run sees the same realized
dataset, partition and noise, so arms are paired.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable
from dataclasses import replace
from functools import reduce
from itertools import combinations
from pathlib import Path
from statistics import fmean, pstdev

from . import __version__
from .config import ExperimentConfig, apply_override, config_to_dict, parse_config
from .errors import ConfigurationError
from .federation import compute_cost_ratio, prepare_experiment, run_training
from .metrics import write_round_log, write_summary

# per-arm values of a summary.json that sweep.json records and compares
POINT_METRICS = ("final_accuracy", "fine_tuned_accuracy", "final_clean_fraction")
# percent-encodes a sweep entry into one path component of its point directory
POINT_ESCAPES = str.maketrans({"%": "%25", "/": "%2F", "\\": "%5C"})


def run(cfg: ExperimentConfig) -> int:
    """Execute every arm on one shared data realization; write per-arm
    round logs and a single summary.json under cfg.output_dir.

    An arm whose parameters turn non-finite stops at that round, which its
    summary entry records as ``diverged_round``; the other arms still run,
    and the run returns 1."""
    prepared = prepare_experiment(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config_to_dict(cfg),
        "version": __version__,
        "seed": cfg.seed,
        "dataset_fingerprint": prepared.fingerprint,
    }

    arms_summary: dict[str, dict] = {}
    ledgers = {}
    status = 0
    for algo in cfg.arms:
        result = run_training(cfg, algo, prepared)
        write_round_log(str(out / f"{algo.label}.csv"), result.rounds)
        entry = {"final_accuracy": result.final_accuracy}
        if result.fine_tuned_accuracy is not None:
            entry["fine_tuned_accuracy"] = result.fine_tuned_accuracy
        clean = result.rounds[-1].coreset_clean_fraction if result.rounds else None
        if clean is not None:
            entry["final_clean_fraction"] = clean
        arms_summary[algo.label] = entry
        t = result.diverged_round
        if t is None:
            ledgers[algo.label] = result.ledger
        else:
            # a stopped arm's ledger covers fewer rounds, so it enters no ratio
            entry["diverged_round"] = t
            print(f"error: arm {algo.label} diverged at round {t}", file=sys.stderr)
            status = 1

    comparisons: dict[str, float] = {}
    # the ratio is undefined when fedavg made no SGD visits (no rounds, or E = 0)
    fedavg = ledgers.get("fedavg")
    if "gcfl" in ledgers and fedavg is not None and fedavg.sgd_sample_visits > 0:
        comparisons["compute_cost_ratio_gcfl_vs_fedavg"] = compute_cost_ratio(
            ledgers["gcfl"], fedavg
        )
    write_summary(str(out / "summary.json"), manifest, arms_summary, comparisons)
    return status


def _spread(values: list[float]) -> dict[str, float]:
    return {"mean": fmean(values), "std": pstdev(values), "min": min(values), "max": max(values)}


def _over_points(records: list[dict], labels: list[str]) -> dict:
    """Per arm, the spread of each point metric over the sweep points; per
    pair of arms (later minus earlier in run order), the spread of the
    paired gap and ``wins``, the number of points where the gap is > 0."""
    series = {
        label: {
            metric: [rec[metric][label] for rec in records]
            for metric in POINT_METRICS
            if all(label in rec[metric] for rec in records)
        }
        for label in labels
    }
    pairs = {}
    for early, late in combinations(labels, 2):
        gaps = {}
        for metric in POINT_METRICS:
            if metric in series[early] and metric in series[late]:
                gap = [b - a for a, b in zip(series[early][metric], series[late][metric])]
                gaps[metric] = {**_spread(gap), "wins": sum(g > 0 for g in gap)}
        pairs[f"{late} - {early}"] = gaps
    arms = {
        label: {metric: _spread(values) for metric, values in by_metric.items()}
        for label, by_metric in series.items()
    }
    return {"arms": arms, "pairs": pairs}


def _sweep_points(
    cfg: ExperimentConfig, param: str, entries: Iterable[str]
) -> list[tuple[str, object, ExperimentConfig]]:
    """(entry, value, config) per non-blank entry, each config set as
    ``--<param> <entry>`` sets it and each value its ``config_to_dict``
    echo.  An unknown key or a bad entry fails as its flag does.  Rejects
    ``output_dir``, no entry, and two entries parsing to equal values."""
    if param == "output_dir":
        # the value recorded would not be the directory the point ran in
        raise ConfigurationError("sweep parameter output_dir is set per point by the sweep")
    points: list[tuple[str, object, ExperimentConfig]] = []
    for text in filter(None, map(str.strip, entries)):
        point_cfg = apply_override(cfg, param, text)
        value = reduce(dict.__getitem__, param.split("."), config_to_dict(point_cfg))
        if any(value == seen for _, seen, _ in points):
            raise ConfigurationError(f"sweep value {value} is repeated")
        points.append((text, value, point_cfg))
    if not points:
        raise ConfigurationError("sweep needs at least one --values entry")
    return points


def sweep(cfg: ExperimentConfig, param: str, entries: Iterable[str]) -> int:
    """Run once per entry, set as ``--<param> <entry>`` sets it, in the
    subdirectory ``<param>=<entry>`` (POINT_ESCAPES applied) and write
    sweep.json: per point, the value, ``diverged_round`` and each other
    arm's POINT_METRICS; over the points, their spread and the paired gaps
    of the arms that ran at every point.

    Every point's config is built and its data world prepared before the
    first run, so an unknown parameter or ``output_dir``, no entry, an
    entry the parameter cannot parse, two entries parsing to equal values,
    a value that is invalid against the base config, or one whose realized
    world fails the pre-flight checks, fails before anything is written.
    Blank entries are skipped.  Returns 1 when any point's run did (an arm
    diverged), after every point has run.
    """
    base_out = Path(cfg.output_dir)
    points = []
    for text, value, point_cfg in _sweep_points(cfg, param, entries):
        point_dir = base_out / f"{param}={text.translate(POINT_ESCAPES)}"
        points.append((value, replace(point_cfg, output_dir=str(point_dir))))
    for _, point_cfg in points:
        prepare_experiment(point_cfg)
    base_out.mkdir(parents=True, exist_ok=True)

    records = []
    status = 0
    for value, point_cfg in points:
        status |= run(point_cfg)
        with open(Path(point_cfg.output_dir) / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        arms = summary["arms"]
        diverged = {arm: e["diverged_round"] for arm, e in arms.items() if "diverged_round" in e}
        record = {"value": value, "comparisons": summary["comparisons"], "diverged_round": diverged}
        for metric in POINT_METRICS:
            record[metric] = {
                arm: e[metric] for arm, e in arms.items() if metric in e and arm not in diverged
            }
        records.append(record)

    ran = [[algo.label for algo in point_cfg.arms] for _, point_cfg in points]
    labels = [label for label in ran[0] if all(label in arms for arms in ran)]
    combined = {
        "parameter": param,
        "results": records,
        "over_points": _over_points(records, labels),
    }
    with open(base_out / "sweep.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(combined, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def _parser() -> argparse.ArgumentParser:
    # abbreviation off so config overrides like --rounds never prefix-match
    parser = argparse.ArgumentParser(
        prog="fedcoreset", description=__doc__, allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep"):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=False, help="INI config file path")
        p.add_argument("--dry-run", action="store_true", help="print resolved config and exit")
        if name == "sweep":
            # --values is read with the --key value pairs, which take the
            # next token verbatim, so a list may start with a minus sign
            p.add_argument("--param", required=True, help="config key, as --<key> names it")
    return parser


def _collect_overrides(extra: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--"):
            raise ConfigurationError(f"unexpected argument {token!r}")
        key = token[2:]
        if "=" in key:
            key, _, value = key.partition("=")
        else:
            if i + 1 >= len(extra):
                raise ConfigurationError(f"flag --{key} is missing a value")
            i += 1
            value = extra[i]
        overrides[key] = value
        i += 1
    return overrides


def main(argv: list[str] | None = None) -> int:
    args, extra = _parser().parse_known_args(argv)
    try:
        overrides = _collect_overrides(extra)
        # left in the overrides under run, --values fails as an unknown key
        entries = overrides.pop("values", "") if args.command == "sweep" else ""
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        cfg = parse_config(text, overrides)
        if args.dry_run:
            if args.command == "sweep":
                _sweep_points(cfg, args.param, entries.split(","))
            print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
            return 0
        if args.command == "run":
            return run(cfg)
        return sweep(cfg, args.param, entries.split(","))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
