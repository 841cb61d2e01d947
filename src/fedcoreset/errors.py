"""Shared exception types and the config fields' declared rules.

Configuration problems (bad hyperparameters, malformed config files, a
realized world the pre-flight rejects) raise :class:`ConfigurationError`;
malformed data (a CSV file, a type's own invariants) raises plain
``ValueError``.  Inputs are checked where they enter; kernels trust them.

A config field declares its rule in its ``metadata``: :func:`bounds` for a
number, ``choices`` for a string, and ``key`` where its config key is not
its name.  Every config group calls :func:`check_fields` when it is built,
so its own code checks only the rules that relate two fields.
"""

from __future__ import annotations

import math
from dataclasses import fields


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""


def bounds(low: float, high: float | None = None, *, above: bool = False) -> dict:
    """Field metadata: the value, or each entry of a tuple, lies in [low, high];
    ``above`` excludes low, and a ``high`` of None sets no upper end."""
    return {"bounds": (low, math.inf if high is None else high, above)}


def check_fields(group: object, section: str) -> None:
    """Reject a field of a config dataclass that breaks its declared rule, or
    any non-finite float, naming its key after ``section`` (``"dataset."``)."""
    for f in fields(group):
        key = section + f.metadata.get("key", f.name)
        value = getattr(group, f.name)
        if "choices" in f.metadata and value not in f.metadata["choices"]:
            raise ConfigurationError(f"{key} must be one of {f.metadata['choices']}, got {value!r}")
        low, high, above = f.metadata.get("bounds", (None, math.inf, False))
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigurationError(f"{key} must be finite, got {v}")
            if low is not None and not (low < v <= high or (v == low and not above)):
                if high == math.inf:
                    rule = f"{'>' if above else '>='} {low}"
                else:
                    rule = f"in {'(' if above else '['}{low}, {high}]"
                raise ConfigurationError(f"{key} must be {rule}, got {v}")
