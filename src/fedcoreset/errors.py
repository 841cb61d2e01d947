"""Shared exception types.

Configuration problems (bad hyperparameters, malformed config files, a
realized world the pre-flight rejects) raise :class:`ConfigurationError`;
malformed data (a CSV file, a type's own invariants) raises plain
``ValueError``.  Inputs are checked where they enter; kernels trust them.
"""


class ConfigurationError(ValueError):
    """A configuration value or combination of values is invalid."""
