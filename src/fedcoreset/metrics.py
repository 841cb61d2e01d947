"""Reporting: round metrics, coreset composition, round logs, summaries.

Per-round series go to CSV (floats rendered with 9 significant digits);
run summaries go to JSON with a versioned schema.  Files are UTF-8 with LF
newlines.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from .data import ClientChunk, Dataset

if TYPE_CHECKING:
    from .federation import CostLedger

__all__ = [
    "SCHEMA_VERSION",
    "RoundMetrics",
    "coreset_composition",
    "dataset_fingerprint",
    "write_round_log",
    "write_summary",
]

SCHEMA_VERSION = 1

ROUND_LOG_HEADER = (
    "round,test_accuracy,mean_train_loss,coreset_clean_fraction,"
    "grad_evals,sgd_visits,params_bcast,grads_bcast,uploads"
)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    test_accuracy: float
    mean_train_loss: float
    coreset_clean_fraction: float | None  # None for non-coreset algorithms
    ledger_snapshot: "CostLedger"

    def __post_init__(self) -> None:
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError("test_accuracy out of [0, 1]")
        frac = self.coreset_clean_fraction
        if frac is not None and not 0.0 <= frac <= 1.0:
            raise ValueError("coreset_clean_fraction out of [0, 1]")


def coreset_composition(pairs: Iterable[tuple[np.ndarray, ClientChunk]]) -> float:
    """Fraction of the rows selected over all (indices, chunk) pairs that
    the injectors left untouched.

    Nothing selected scores 1.0 (vacuously clean).
    """
    picked = clean = 0
    for indices, chunk in pairs:
        picked += indices.size
        clean += int(chunk.clean_flags[indices].sum())
    return clean / picked if picked else 1.0


def dataset_fingerprint(chunks: list[ClientChunk], val: Dataset, test: Dataset) -> str:
    """SHA-256 over the realized (noisy) data, for arm-isolation checks."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.dataset.features.tobytes())
        h.update(chunk.dataset.labels.tobytes())
        h.update(chunk.clean_flags.tobytes())
    for part in (val, test):
        h.update(part.features.tobytes())
        h.update(part.labels.tobytes())
    return h.hexdigest()


def _fmt(value: float | None) -> str:
    return "" if value is None else format(float(value), ".9g")


def write_round_log(path: str, series: list[RoundMetrics]) -> None:
    """One CSV row per round; see ROUND_LOG_HEADER for the columns."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(ROUND_LOG_HEADER + "\n")
            for rm in series:
                led = rm.ledger_snapshot
                fh.write(
                    ",".join(
                        [
                            str(rm.round),
                            _fmt(rm.test_accuracy),
                            _fmt(rm.mean_train_loss),
                            _fmt(rm.coreset_clean_fraction),
                            str(led.per_sample_grad_evals),
                            str(led.sgd_sample_visits),
                            str(led.params_broadcast),
                            str(led.grads_broadcast),
                            str(led.update_uploads),
                        ]
                    )
                    + "\n"
                )
    except OSError as exc:
        raise OSError(f"failed to write round log {path}: {exc}") from exc


def write_summary(
    path: str,
    manifest: dict[str, Any],
    arms: dict[str, Any],
    comparisons: dict[str, Any] | None = None,
) -> None:
    """JSON summary: the manifest (everything needed to reproduce the run:
    config echo, version, seed, dataset fingerprint), one entry per
    algorithm arm, and any cross-arm comparisons (cost ratios)."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "arms": arms,
        "comparisons": comparisons or {},
    }
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed to write summary {path}: {exc}") from exc
