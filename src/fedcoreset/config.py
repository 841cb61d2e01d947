"""Experiment configuration: dataclasses, INI parsing, and validation.

Config files are INI-style key = value sections.  Protocol-level keys live
in ``[experiment]``; the nested groups ``[dataset]``, ``[noise]`` and
``[model]`` are addressed from the command line with dotted flags
(``--noise.ratio 0.4``), while ``[experiment]`` keys are addressed bare
(``--rounds 100``).  Unknown keys are rejected by name.
:func:`parse_config` takes INI text, not a path; the CLI reads the
``--config`` file itself and passes its flags as overrides, which beat the
file.

The keys are derived from the dataclass fields: each field of
:class:`ExperimentConfig` is an ``[experiment]`` key (a field's ``key``
metadata renames it: ``lam`` is ``lambda``) and each field of a nested group
is a key of that group's section, parsed according to the field's
annotation.  Adding a field adds its key, and the rule its metadata declares
(:func:`.errors.bounds`, ``choices``) is checked when its group is built, so
a config object that exists is valid.  The nested groups live beside the
code that consumes them (``DatasetConfig`` and ``NoiseSpec`` in
:mod:`.data`, ``ModelConfig`` in :mod:`.model`) and are re-exported here.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .data import DatasetConfig, NoiseSpec
from .errors import ConfigurationError, bounds, check_fields
from .federation import Algo, parse_algo
from .model import ModelConfig

__all__ = [
    "DatasetConfig",
    "ModelConfig",
    "ExperimentConfig",
    "parse_config",
    "config_to_dict",
    "apply_override",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """All protocol hyperparameters for one experiment."""

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    num_clients: int = field(default=10, metadata=bounds(1))
    clients_per_round: int | None = None  # None -> all clients every round
    rounds: int = field(default=100, metadata=bounds(0))
    refresh_period: int = field(default=10, metadata=bounds(1))
    budget_fraction: float = field(default=0.1, metadata=bounds(0, 1, above=True))
    local_epochs: int = field(default=1, metadata=bounds(0))
    local_lr: float = field(default=0.01, metadata=bounds(0, above=True))
    global_lr: float = field(default=0.01, metadata=bounds(0, above=True))
    lam: float = field(default=0.5, metadata=bounds(0) | {"key": "lambda"})
    dirichlet_alpha: float = field(default=0.4, metadata=bounds(0, above=True))
    batch_size: int = field(default=32, metadata=bounds(1))
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    arms: tuple[Algo, ...] = (Algo("gcfl"),)
    model: ModelConfig = field(default_factory=ModelConfig)
    val_frac: float = field(default=0.10, metadata=bounds(0))
    test_frac: float = field(default=0.15, metadata=bounds(0))
    seed: int = field(default=0, metadata=bounds(0))
    output_dir: str = "runs"
    fine_tune_epochs: int = field(default=0, metadata=bounds(0))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_fields(self, "")  # the nested groups checked theirs when built
        m = self.clients_per_round
        if m is not None and not 1 <= m <= self.num_clients:
            raise ConfigurationError(
                f"clients_per_round must satisfy 1 <= m <= num_clients ({m} vs {self.num_clients})"
            )
        if not self.arms:
            raise ConfigurationError("arms: at least one algorithm arm is required")
        # each arm writes its round log and summary entry under its label
        labels = [algo.label for algo in self.arms]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigurationError(f"arms: {label} is listed more than once")
        if (held_out := self.val_frac + self.test_frac) >= 1:
            raise ConfigurationError(f"val_frac + test_frac must be < 1, got {held_out}")


def _parse_optional_int(text: str) -> int | None:
    return None if text.lower() in ("", "all") else int(text)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",")) if text else ()


def _parse_arms(text: str) -> tuple[Algo, ...]:
    return tuple(parse_algo(tok) for tok in text.split(",") if tok.strip())


# field annotation -> (parser of the stripped text, what a failure reports)
_PARSERS = {
    "int": (int, "cannot parse {!r} as int"),
    "float": (float, "cannot parse {!r} as float"),
    "str": (str, ""),
    "int | None": (_parse_optional_int, "cannot parse {!r} as int"),
    "tuple[float, ...]": (_parse_floats, "expected comma-separated floats"),
    "tuple[Algo, ...]": (_parse_arms, ""),
}

# field name -> config key, where a field declares its own key
_ALIASES = {f.name: f.metadata["key"] for f in fields(ExperimentConfig) if "key" in f.metadata}

# the nested groups: fields of ExperimentConfig that are dataclasses themselves
_GROUPS = tuple(f.name for f in fields(ExperimentConfig) if is_dataclass(f.default_factory))


def _key_table() -> dict[str, tuple[str | None, str, tuple]]:
    """Config key -> (nested group or None, field name, parser entry)."""
    table = {}
    for f in fields(ExperimentConfig):
        if f.name in _GROUPS:
            for sub in fields(f.default_factory):
                table[f"{f.name}.{sub.name}"] = (f.name, sub.name, _PARSERS[sub.type])
        else:
            table[_ALIASES.get(f.name, f.name)] = (None, f.name, _PARSERS[f.type])
    return table


_KEYS = _key_table()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical nested dict echo of a resolved config (JSON-stable)."""
    out = asdict(cfg)
    out["arms"] = [a.label for a in cfg.arms]
    out["dataset"]["stds"] = list(cfg.dataset.stds)
    for name, key in _ALIASES.items():
        out[key] = out.pop(name)
    return out


def _set(cfg: ExperimentConfig, pairs: Iterable[tuple[str, str]]) -> ExperimentConfig:
    """Return cfg with each (key, text) pair parsed and applied, later pairs
    winning.  The new config validates itself as it is built."""
    top: dict[str, object] = {}
    groups: dict[str, dict[str, object]] = {}
    for key, text in pairs:
        if key not in _KEYS:
            raise ConfigurationError(f"unknown config key {key!r}")
        group, name, (parse, failure) = _KEYS[key]
        text = text.strip()
        try:
            value = parse(text)
        except ConfigurationError:
            raise  # a bad arm token already says what is wrong
        except ValueError:
            raise ConfigurationError(f"config key {key!r}: {failure.format(text)}") from None
        if group is None:
            top[name] = value
        else:
            groups.setdefault(group, {})[name] = value
    for group, changes in groups.items():
        top[group] = replace(getattr(cfg, group), **changes)
    return replace(cfg, **top)


def parse_config(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse INI config text, then apply dotted-key overrides.  Raises
    ConfigurationError naming any unknown key, type mismatch, or violated
    invariant."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config: {exc}") from exc

    if parser.defaults():  # configparser would copy its entries into every section
        raise ConfigurationError("unknown config section [DEFAULT]")
    pairs: list[tuple[str, str]] = []
    for section in parser.sections():
        if section == "experiment":
            prefix = ""
        elif section in _GROUPS:
            prefix = f"{section}."
        else:
            raise ConfigurationError(f"unknown config section [{section}]")
        pairs += [(prefix + key, val) for key, val in parser.items(section)]
    pairs += (overrides or {}).items()
    return _set(ExperimentConfig(), pairs)


def apply_override(cfg: ExperimentConfig, key: str, text: str) -> ExperimentConfig:
    """Return a new config with one dotted key overridden from text."""
    return _set(cfg, [(key, text)])
