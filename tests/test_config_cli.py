import configparser
import json
import math
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedcoreset.cli import _sweep_points, main, sweep
from fedcoreset.config import (
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    apply_override,
    config_to_dict,
    parse_config,
)
from fedcoreset.data import Dataset, NoiseSpec
from fedcoreset.errors import ConfigurationError
from fedcoreset.federation import Algo
from fedcoreset.presets import blob_benchmark_config
from worldgen import write_csv

GOLDEN = Path(__file__).parent / "golden"


def write_ini(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL = """
[experiment]
num_clients = 4
rounds = 2

[dataset]
num_blobs = 4
dim = 4
samples_per_blob = 30
"""

FULL = """
[experiment]
num_clients = 3
clients_per_round = 2
rounds = 3
refresh_period = 2
budget_fraction = 0.25
local_epochs = 2
local_lr = 0.05
global_lr = 0.5
lambda = 0.1
dirichlet_alpha = 0.7
batch_size = 16
arms = fedavg, gcfl
val_frac = 0.1
test_frac = 0.2
seed = 11
output_dir = out

[dataset]
num_blobs = 5
dim = 3
stds = 1, 1, 2, 2, 3
samples_per_blob = 40

[noise]
kind = closed_set
ratio = 0.3

[model]
arch = one_hidden
hidden_dim = 9
"""


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.num_clients == 4
        assert cfg.local_epochs == 1
        assert cfg.lam == 0.5
        assert cfg.refresh_period == 10
        assert cfg.local_lr == 0.01
        assert cfg.global_lr == 0.01
        assert cfg.batch_size == 32
        assert cfg.noise.kind == "none"
        assert cfg.model.arch == "softmax_regression"

    def test_full_config_round_trip(self):
        cfg = parse_config(FULL)
        assert cfg.clients_per_round == 2
        assert cfg.lam == 0.1
        assert [a.kind for a in cfg.arms] == ["fedavg", "gcfl"]
        assert cfg.dataset.stds == (1, 1, 2, 2, 3)
        assert cfg.noise.ratio == 0.3
        assert cfg.model.hidden_dim == 9

    def test_file_source(self, tmp_path, capsys):
        # the CLI reads the --config file and parses its text
        assert main(["run", "--config", write_ini(tmp_path, MINIMAL), "--dry-run"]) == 0
        assert json.loads(capsys.readouterr().out) == config_to_dict(parse_config(MINIMAL))

    def test_missing_file_named(self, tmp_path, capsys):
        # a sweep point directory: a path with "=" is a path like any other
        for path in (tmp_path / "missing.ini", tmp_path / "noise.ratio=0.2" / "exp.ini"):
            assert main(["run", "--config", str(path), "--dry-run"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and str(path) in captured.err

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="warp_speed"):
            parse_config("[experiment]\nwarp_speed = 9\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigurationError, match="mystery"):
            parse_config("[mystery]\nx = 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nrounds = 3\n",
            "[DEFAULT]\nrounds = 3\n[noise]\nratio = 0.4\n",
            "[DEFAULT]\nseed = 4\n[experiment]\nrounds = 3\n",
        ],
        ids=["alone", "beside_noise", "beside_experiment"],
    )
    def test_default_section_rejected(self, text):
        # configparser hands a [DEFAULT] entry to every other section
        with pytest.raises(ConfigurationError, match=r"^unknown config section \[DEFAULT\]$"):
            parse_config(text)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            parse_config("[experiment]\nrounds = soon\n")

    @pytest.mark.parametrize(
        "key,text,message",
        [
            ("rounds", "soon", "config key 'rounds': cannot parse 'soon' as int"),
            ("local_lr", "fast", "config key 'local_lr': cannot parse 'fast' as float"),
            ("clients_per_round", "two", "config key 'clients_per_round': cannot parse 'two' as int"),
            ("dataset.stds", "1,x", "config key 'dataset.stds': expected comma-separated floats"),
        ],
    )
    def test_parse_error_wording(self, key, text, message):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(MINIMAL, overrides={key: text})
        assert str(exc.value) == message

    def test_oversampling_rejected_with_named_constraint(self):
        with pytest.raises(ConfigurationError, match="clients_per_round"):
            parse_config("[experiment]\nnum_clients = 2\nclients_per_round = 5\n")

    def test_overrides_applied(self):
        cfg = parse_config(MINIMAL, overrides={"noise.ratio": "0.4", "noise.kind": "closed_set", "rounds": "7"})
        assert cfg.noise.ratio == 0.4
        assert cfg.rounds == 7

    def test_bad_noise_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="noise.kind"):
            parse_config(MINIMAL, overrides={"noise.kind": "salt_and_pepper"})


def test_dry_run_json_of_full_config_matches_golden(tmp_path, capsys):
    assert main(["run", "--config", write_ini(tmp_path, FULL), "--dry-run"]) == 0
    golden = (GOLDEN / "dry_run_full.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


SECTIONS = {
    "experiment": ExperimentConfig,
    "dataset": DatasetConfig,
    "noise": NoiseSpec,
    "model": ModelConfig,
}
# Settings for the fields whose type alone gives no valid non-default value.
SPECIAL_SAMPLES = {
    "dataset.kind": ("csv", "csv"),
    "dataset.stds": (", ".join(["2"] * 10), [2.0] * 10),
    "noise.kind": ("open_set", "open_set"),
    "model.arch": ("one_hidden", "one_hidden"),
    "arms": ("fedavg, fedprox:0.5", ["fedavg", "fedprox_mu0.5"]),
}
# dataset.kind = csv is valid only with a path
COVERAGE_BASE = {"dataset": {"csv_path": "base.csv"}}


# (section, key within the section, default) for every config field
FIELD_KEYS = [
    (section, "lambda" if f.name == "lam" else f.name, getattr(cls(), f.name))
    for section, cls in SECTIONS.items()
    for f in fields(cls)
    if f.name not in SECTIONS  # a nested group is covered field by field
]


def _sample(key: str, default: object) -> tuple[str, object]:
    """(INI text, expected config_to_dict echo) for a non-default value."""
    if key in SPECIAL_SAMPLES:
        return SPECIAL_SAMPLES[key]
    if default is None or isinstance(default, int):
        return str((default or 0) + 1), (default or 0) + 1
    if isinstance(default, float):
        return repr(default + 0.25), default + 0.25
    if isinstance(default, str):
        return f"alt_{key}", f"alt_{key}"
    raise AssertionError(f"no sample value for config key {key!r}")


def _render(sections: dict[str, dict[str, str]]) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        for name, body in sections.items()
    )


@pytest.mark.parametrize(
    "section,name,default", FIELD_KEYS, ids=[f"{s}.{n}" for s, n, _ in FIELD_KEYS]
)
def test_every_config_field_is_settable_and_echoed(section, name, default):
    key = name if section == "experiment" else f"{section}.{name}"
    text, expected = _sample(key, default)
    ini = {s: dict(body) for s, body in COVERAGE_BASE.items()}
    ini.setdefault(section, {})[name] = text
    base = parse_config(_render(COVERAGE_BASE))

    def echo(cfg):
        out = config_to_dict(cfg)
        return out[name] if section == "experiment" else out[section][name]

    assert echo(base) != expected
    assert echo(parse_config(_render(ini))) == expected
    assert echo(apply_override(base, key, text)) == expected
    if key == "output_dir":
        # the sweep names each point's directory itself
        with pytest.raises(ConfigurationError, match="output_dir"):
            _sweep_points(base, key, [text])
    else:
        ((_, value, _),) = _sweep_points(base, key, [text])
        assert value == expected


def _config_key(section: str, name: str) -> str:
    name = "lambda" if name == "lam" else name
    return name if section == "experiment" else f"{section}.{name}"


# every float-valued config key, found from the field annotations
FLOAT_KEYS = [
    _config_key(section, f.name)
    for section, cls in SECTIONS.items()
    for f in fields(cls)
    if f.type in ("float", "tuple[float, ...]")
]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key):
    base = parse_config(MINIMAL)  # four blobs
    for bad in ("nan", "inf", "-inf"):
        text = f"1,{bad},1,1" if key == "dataset.stds" else bad
        with pytest.raises(ConfigurationError, match=re.escape(key)):
            apply_override(base, key, text)


# one value outside each range rule of ExperimentConfig.validate; the
# engine functions trust these rules and do not check the values again
RANGE_VIOLATIONS = [
    ("num_clients", "0"),
    ("clients_per_round", "0"),
    ("clients_per_round", "11"),
    ("rounds", "-1"),
    ("refresh_period", "0"),
    ("budget_fraction", "0"),
    ("budget_fraction", "1.5"),
    ("local_epochs", "-1"),
    ("local_lr", "0"),
    ("global_lr", "-1"),
    ("lambda", "-0.1"),
    ("dirichlet_alpha", "0"),
    ("batch_size", "0"),
    ("val_frac", "-0.1"),
    ("test_frac", "-0.1"),
    ("val_frac", "0.85"),
    ("test_frac", "0.9"),
    ("fine_tune_epochs", "-1"),
    ("seed", "-1"),
]


@pytest.mark.parametrize(
    "key,text", RANGE_VIOLATIONS, ids=[f"{k}={t}" for k, t in RANGE_VIOLATIONS]
)
def test_range_rule_names_the_key(key, text):
    with pytest.raises(ConfigurationError) as exc:
        apply_override(ExperimentConfig(), key, text)
    assert key in str(exc.value)


def test_float_keys_cover_every_float_field():
    assert len(FLOAT_KEYS) == 10
    assert {"lambda", "noise.severity", "dataset.stds"} <= set(FLOAT_KEYS)


# every group whose fields carry declared rules: a valid instance, and the
# prefix its error messages put before a field's key
RULED_GROUPS = {
    "experiment": (ExperimentConfig(), ""),
    "dataset": (DatasetConfig(csv_path="data.csv"), "dataset."),  # so kind = csv is valid
    "noise": (NoiseSpec(), "noise."),
    "model": (ModelConfig(), "model."),
    "arm": (Algo("fedprox"), "arm "),
}
NUMERIC_TYPES = ("int", "int | None", "float", "tuple[float, ...]")
# the numeric fields whose rule relates them to another field, checked by hand
CROSS_FIELD = {("experiment", "clients_per_round"), ("model", "hidden_dim")}


def test_every_numeric_field_declares_bounds():
    numeric = {
        (name, f.name): f
        for name, (group, _) in RULED_GROUPS.items()
        for f in fields(group)
        if f.type in NUMERIC_TYPES
    }
    assert CROSS_FIELD <= numeric.keys()
    undeclared = {k for k, f in numeric.items() if "bounds" not in f.metadata}
    assert undeclared == CROSS_FIELD


def _beyond(value, to):
    """The next int or float after value, toward to."""
    return value + (1 if to > value else -1) if isinstance(value, int) else math.nextafter(value, to)


def _rule_cases(group, prefix: str) -> list[tuple[str, str, object, bool]]:
    """(field, key, value, valid) at and just beyond each declared bound (an
    upper bound of inf is none), and at each declared choice and one beyond."""
    cases = []
    for f in fields(group):
        key = prefix + f.metadata.get("key", f.name)
        if "choices" in f.metadata:
            cases += [(f.name, key, choice, True) for choice in f.metadata["choices"]]
            cases.append((f.name, key, "not_a_choice", False))
        if "bounds" not in f.metadata:
            continue
        low, high, above = f.metadata["bounds"]
        if f.type != "int":
            low, high = float(low), float(high)
        cases += [(f.name, key, low, not above), (f.name, key, _beyond(low, -math.inf), False)]
        if above:
            cases.append((f.name, key, _beyond(low, math.inf), True))
        if math.isfinite(high):
            cases += [(f.name, key, high, True), (f.name, key, _beyond(high, math.inf), False)]
    return cases


@pytest.mark.parametrize("section", RULED_GROUPS)
def test_each_declared_rule_holds_at_its_edge(section):
    group, prefix = RULED_GROUPS[section]
    cases = _rule_cases(group, prefix)
    assert cases, f"{section} declares no rule"
    for name, key, value, valid in cases:
        if name == "stds":
            value = (value,) * group.num_blobs
        if valid:
            replace(group, **{name: value})
            continue
        with pytest.raises(ConfigurationError) as exc:
            replace(group, **{name: value})
        assert str(exc.value).startswith(f"{key} must be "), (value, str(exc.value))


README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
(README_INI,) = re.findall(r"```ini\n(.*?)```", README, flags=re.S)


def test_readme_config_block_parses_and_names_every_key():
    parse_config(README_INI)
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(README_INI)
    named = {_config_key(section, key) for section in ini.sections() for key in ini[section]}
    assert named == {_config_key(section, name) for section, name, _ in FIELD_KEYS}


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``fedcoreset`` line in the bash blocks of the
    README's CLI and Experiments sections, with ``$BLOB`` and
    ``$(seq -s, A B)`` expanded as the shell would."""
    blocks = []
    for section in ("CLI", "Experiments"):
        body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
        blocks += re.findall(r"```bash\n(.*?)```", body, flags=re.S)
    text = "\n".join(blocks)
    for name, value in re.findall(r'^(\w+)="(.*)"$', text, flags=re.M):
        text = text.replace(f"${name}", value)
    text = re.sub(
        r"\$\(seq -s, (\d+) (\d+)\)",
        lambda m: ",".join(str(i) for i in range(int(m[1]), int(m[2]) + 1)),
        text,
    )
    lines = [line for line in text.splitlines() if line.startswith("fedcoreset ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_commands_pass_a_dry_run(tmp_path, capsys):
    """Every README command line resolves its config, so a flag or key the
    CLI no longer takes cannot linger in the docs."""
    commands = _readme_commands()
    assert len(commands) == 9  # five in CLI, four in Experiments
    ini = write_ini(tmp_path, README_INI)
    for argv in commands:
        argv = [ini if arg == "exp.ini" else arg for arg in argv]
        assert main([*argv, "--dry-run"]) == 0, (argv, capsys.readouterr().err)


def test_negative_std_rejected_before_dry_run_echo(capsys):
    code = main(["run", "--dry-run", "--dataset.num_blobs", "3", "--dataset.stds=-1,1,1"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: dataset.stds must be >= 0, got -1.0\n")


def test_negative_seed_rejected_before_dry_run_echo(capsys):
    assert main(["run", "--dry-run", "--seed", "-1"]) == 1
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


def test_non_integer_seed_names_the_key(capsys):
    assert main(["run", "--dry-run", "--seed", "x"]) == 1
    assert capsys.readouterr() == ("", "error: config key 'seed': cannot parse 'x' as int\n")


def test_repeated_arm_label_rejected(capsys):
    # both arms would write fedprox_mu0.1.csv and one summary entry
    assert main(["run", "--dry-run", "--arms", "gcfl,fedprox,fedprox:0.1"]) == 1
    assert capsys.readouterr() == ("", "error: arms: fedprox_mu0.1 is listed more than once\n")


def test_empty_arm_list_names_the_key(capsys):
    assert main(["run", "--dry-run", "--arms", ""]) == 1
    assert capsys.readouterr() == ("", "error: arms: at least one algorithm arm is required\n")


def test_run_rejects_values(capsys):
    assert main(["run", "--dry-run", "--values", "0,1"]) == 1
    assert capsys.readouterr() == ("", "error: unknown config key 'values'\n")


def test_output_dir_has_one_flag(capsys):
    assert main(["run", "--dry-run", "--out", "x"]) == 1
    assert capsys.readouterr() == ("", "error: unknown config key 'out'\n")


# the README's blob benchmark command: these flags on the default config
BLOB_FLAGS = ["--local_lr", "0.3", "--global_lr", "1.0", "--noise.kind", "closed_set",
              "--noise.ratio", "0.4", "--arms", "fedavg,gcfl,skyline,random"]


def test_blob_flags_give_the_preset(tmp_path, capsys):
    out = str(tmp_path / "blob")
    assert main(["run", "--dry-run", *BLOB_FLAGS, "--output_dir", out]) == 0
    preset = config_to_dict(blob_benchmark_config(output_dir=out))
    assert capsys.readouterr().out == json.dumps(preset, indent=2, sort_keys=True) + "\n"


class TestApplyOverride:
    def test_nested_and_flat(self):
        cfg = parse_config(MINIMAL)
        cfg2 = apply_override(cfg, "noise.ratio", "0.2")
        assert cfg2.noise.ratio == 0.2
        cfg3 = apply_override(cfg, "refresh_period", "5")
        assert cfg3.refresh_period == 5
        cfg4 = apply_override(cfg, "lambda", "0.9")
        assert cfg4.lam == 0.9

    def test_validation_still_applies(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigurationError):
            apply_override(cfg, "budget_fraction", "1.5")


class TestSweepSpec:
    """The checks ``sweep`` makes on its parameter and entries."""

    def base(self, tmp_path):
        out = str(tmp_path / "sweepout")
        return parse_config(SWEEP_CFG, {"rounds": "1", "output_dir": out}), Path(out)

    def test_empty_values_rejected(self, tmp_path):
        cfg, out = self.base(tmp_path)
        with pytest.raises(ConfigurationError):
            sweep(cfg, "noise.ratio", ())
        assert not out.exists()

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg, out = self.base(tmp_path)
        with pytest.raises(ConfigurationError, match="unknown config key 'nope'"):
            sweep(cfg, "nope", ("1", "2"))
        assert not out.exists()

    def test_repeated_value_rejected(self, tmp_path):
        cfg, out = self.base(tmp_path)
        with pytest.raises(ConfigurationError, match="sweep value 0.1 is repeated"):
            sweep(cfg, "noise.ratio", ("0.1", "0.2", "0.1"))
        assert not out.exists()

    def test_values_equal_to_six_digits_are_distinct(self, tmp_path):
        cfg, out = self.base(tmp_path)
        assert sweep(cfg, "noise.ratio", ("0.1234567", "0.1234568")) == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [rec["value"] for rec in payload["results"]] == [0.1234567, 0.1234568]
        for text in ("0.1234567", "0.1234568"):
            assert (out / f"noise.ratio={text}" / "summary.json").exists()


SMALL_RUN = """
[experiment]
num_clients = 3
rounds = 2
refresh_period = 1
budget_fraction = 0.3
local_lr = 0.1
global_lr = 1.0
arms = fedavg, gcfl, skyline
seed = 5

[dataset]
num_blobs = 4
dim = 4
samples_per_blob = 30

[noise]
kind = closed_set
ratio = 0.4
"""


class TestCliRun:
    def write_cfg(self, tmp_path):
        return write_ini(tmp_path, SMALL_RUN)

    def test_three_arms_make_three_csvs_and_summary(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg_path, "--output_dir", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "fedavg.csv",
            "gcfl.csv",
            "skyline.csv",
        ]
        assert (out / "summary.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--output_dir", str(out1)]) == 0
        assert main(["run", "--config", cfg_path, "--output_dir", str(out2)]) == 0
        for name in ("fedavg.csv", "gcfl.csv", "skyline.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_dry_run_prints_config_and_writes_nothing(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", cfg_path, "--output_dir", str(out), "--dry-run"])
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["num_clients"] == 3
        assert not out.exists()

    def test_flag_overrides(self, tmp_path, capsys):
        cfg_path = self.write_cfg(tmp_path)
        code = main(
            ["run", "--config", cfg_path, "--dry-run", "--noise.ratio", "0.1",
             "--rounds", "9", "--seed", "42"]
        )
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["noise"]["ratio"] == 0.1
        assert resolved["rounds"] == 9
        assert resolved["seed"] == 42

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        code = main(["run", "--config", self.write_cfg(tmp_path), "--rounds", "never"])
        assert code == 1
        assert "rounds" in capsys.readouterr().err

    def test_manifest_echoes_resolved_config(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", cfg_path, "--output_dir", str(out)]) == 0
        with open(out / "summary.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        cfg = parse_config(SMALL_RUN)
        from dataclasses import replace

        cfg = replace(cfg, output_dir=str(out))
        assert json.dumps(payload["manifest"]["config"], sort_keys=True) == json.dumps(
            config_to_dict(cfg), sort_keys=True
        )

    def run_summary(self, tmp_path, *flags):
        out = tmp_path / "results"
        cfg_path = self.write_cfg(tmp_path)
        assert main(["run", "--config", cfg_path, "--output_dir", str(out), *flags]) == 0
        return out, json.loads((out / "summary.json").read_text(encoding="utf-8"))

    def test_coreset_arms_record_final_clean_fraction(self, tmp_path):
        out, summary = self.run_summary(tmp_path, "--arms", "fedavg,gcfl,random")
        assert "final_clean_fraction" not in summary["arms"]["fedavg"]
        for arm in ("gcfl", "random"):
            last = (out / f"{arm}.csv").read_text(encoding="utf-8").splitlines()[-1]
            frac = summary["arms"][arm]["final_clean_fraction"]
            assert format(frac, ".9g") == last.split(",")[3]

    def test_no_rounds_omits_final_clean_fraction(self, tmp_path):
        _, summary = self.run_summary(tmp_path, "--rounds", "0")
        assert all("final_clean_fraction" not in entry for entry in summary["arms"].values())
        assert summary["comparisons"] == {}

    def test_zero_local_epochs_runs_to_a_summary_without_cost_ratio(self, tmp_path):
        # fedavg makes no SGD visits, so the compute ratio is undefined
        out, summary = self.run_summary(
            tmp_path, "--arms", "gcfl,fedavg", "--local_epochs", "0"
        )
        assert sorted(summary["arms"]) == ["fedavg", "gcfl"]
        assert summary["comparisons"] == {}
        assert (out / "fedavg.csv").exists()

    def test_summary_reproducible_from_manifest(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", cfg_path, "--output_dir", str(out)]) == 0
        with open(out / "summary.json", encoding="utf-8") as fh:
            first = json.load(fh)
        # rebuild a config from the manifest echo and re-run
        manifest_cfg = first["manifest"]["config"]
        lines = ["[experiment]"]
        for key in ("num_clients", "rounds", "refresh_period", "budget_fraction",
                    "local_lr", "global_lr", "seed"):
            lines.append(f"{key} = {manifest_cfg[key]}")
        lines.append("arms = " + ",".join(manifest_cfg["arms"]))
        lines.append("[dataset]")
        for key in ("num_blobs", "dim", "samples_per_blob"):
            lines.append(f"{key} = {manifest_cfg['dataset'][key]}")
        lines.append("[noise]")
        lines.append(f"kind = {manifest_cfg['noise']['kind']}")
        lines.append(f"ratio = {manifest_cfg['noise']['ratio']}")
        out2 = tmp_path / "again"
        code = main(["run", "--config", write_ini(tmp_path, "\n".join(lines)),
                     "--output_dir", str(out2)])
        assert code == 0
        with open(out2 / "summary.json", encoding="utf-8") as fh:
            second = json.load(fh)
        assert first["arms"] == second["arms"]
        assert (
            first["manifest"]["dataset_fingerprint"]
            == second["manifest"]["dataset_fingerprint"]
        )


SWEEP_CFG = """
[experiment]
num_clients = 3
rounds = 4
refresh_period = 2
budget_fraction = 0.3
local_lr = 0.1
global_lr = 1.0
arms = fedavg, gcfl
seed = 3

[dataset]
num_blobs = 3
dim = 3
samples_per_blob = 30
"""


class TestCsvDataset:
    def test_run_from_csv_file(self, tmp_path):
        from worldgen import blobs

        ds = blobs(3, 4, np.ones(3), 40, seed=0)
        csv_path = tmp_path / "data.csv"
        write_csv(ds, csv_path)
        cfg_text = f"""
[experiment]
num_clients = 3
rounds = 2
local_lr = 0.1
global_lr = 1.0
arms = fedavg

[dataset]
kind = csv
csv_path = {csv_path}
"""
        out = tmp_path / "csvrun"
        assert main(["run", "--config", write_ini(tmp_path, cfg_text),
                     "--output_dir", str(out)]) == 0
        assert (out / "fedavg.csv").exists()

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("f0,f1,label\n0.5,0.25,0\n0.5,0.25,1,7\n", "the number of columns changed"),
            ("f0,f1,label\n0.5,abc,0\n", "could not convert string 'abc'"),
        ],
        ids=["ragged_row", "non_numeric_feature"],
    )
    def test_unreadable_row_names_the_file(self, tmp_path, capsys, text, reason):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(text, encoding="utf-8")
        out = tmp_path / "results"
        code = main(["run", "--rounds", "0", "--arms", "fedavg", "--output_dir", str(out),
                     "--dataset.kind", "csv", "--dataset.csv_path", str(csv_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: ") and reason in err, err

    def test_csv_kind_requires_path(self):
        with pytest.raises(ConfigurationError, match="csv_path"):
            parse_config("[dataset]\nkind = csv\n")


PREFLIGHT_RUN = """
[experiment]
num_clients = 3
rounds = 2
local_lr = 0.1
global_lr = 1.0
arms = fedavg, gcfl

[dataset]
num_blobs = 3
dim = 3
samples_per_blob = 30
"""


class TestPreflight:
    """Configs that pass validation but whose realized world some arm
    cannot run on fail before the first arm, naming the key to change."""

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--val_frac", "0.0"], "val_frac"),
            (["--arms", "fedavg", "--fine_tune_epochs", "1", "--val_frac", "0.0"], "val_frac"),
            (["--test_frac", "0.0"], "test_frac"),
            # 0.0009 * 500 rounds to no validation sample in any class
            (["--val_frac", "0.0009", "--dataset.samples_per_blob", "500"], "val_frac"),
        ],
        ids=["gcfl_empty_val", "fine_tune_empty_val", "empty_test", "val_rounds_to_empty"],
    )
    def test_rejected_before_any_arm_runs(self, tmp_path, capsys, flags, key):
        out = tmp_path / "results"
        cfg_path = write_ini(tmp_path, PREFLIGHT_RUN)
        code = main(["run", "--config", cfg_path, "--output_dir", str(out), *flags])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_csv_client_sharing_no_class_with_val(self, tmp_path, capsys):
        # class 1 has too few samples for a validation share, and at seed 13
        # the partition leaves client 0 holding only class 1
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(44, 2)), np.array([0] * 40 + [1] * 4), 2)
        csv_path = tmp_path / "data.csv"
        write_csv(ds, csv_path)
        out = tmp_path / "results"
        code = main(
            ["run", "--config", write_ini(tmp_path, PREFLIGHT_RUN), "--output_dir", str(out),
             "--seed", "13",
             "--num_clients", "2", "--budget_fraction", "0.5",
             "--dataset.kind", "csv", "--dataset.csv_path", str(csv_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "client 0 shares no class" in err and "val_frac" in err
        assert not out.exists()

    def test_gcfl_without_rounds_needs_no_validation_set(self, tmp_path):
        out = tmp_path / "results"
        code = main(
            ["run", "--config", write_ini(tmp_path, PREFLIGHT_RUN), "--output_dir", str(out),
             "--val_frac", "0.0", "--rounds", "0"]
        )
        assert code == 0
        assert (out / "gcfl.csv").exists()


class TestCliSweep:
    def test_noise_sweep_produces_six_records(self, tmp_path):
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "noise.ratio", "--values", "0,0.2,0.4",
             "--noise.kind", "closed_set"]
        )
        assert code == 0
        with open(out / "sweep.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["parameter"] == "noise.ratio"
        records = [
            (rec["value"], arm)
            for rec in payload["results"]
            for arm in rec["final_accuracy"]
        ]
        assert len(records) == 6
        for value in (0, 0.2, 0.4):
            assert (out / f"noise.ratio={value:g}" / "summary.json").exists()

    def test_refresh_period_sweep_cost_ratio_decreases(self, tmp_path):
        cfg_path = write_ini(tmp_path, SWEEP_CFG.replace("rounds = 4", "rounds = 20"))
        out = tmp_path / "ksweep"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "refresh_period", "--values", "5,10,20"]
        )
        assert code == 0
        with open(out / "sweep.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        ratios = [
            rec["comparisons"]["compute_cost_ratio_gcfl_vs_fedavg"]
            for rec in payload["results"]
        ]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_empty_values_rejected(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        code = main(
            ["sweep", "--config", cfg_path, "--param", "noise.ratio", "--values", ""]
        )
        assert code == 1

    def test_invalid_later_point_fails_before_any_run(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG.replace(
            "num_clients = 3", "num_clients = 4\nclients_per_round = 4"))
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "num_clients", "--values", "4,2"]
        )
        assert code == 1
        assert "clients_per_round" in capsys.readouterr().err
        assert not out.exists()

    def test_later_point_failing_preflight_fails_before_any_run(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG.replace("num_blobs = 3", "num_blobs = 4"))
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "noise.ratio", "--values", "0.5,1.0", "--noise.kind", "open_set"]
        )
        assert code == 1
        assert "removes all 4 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_value_names_the_flag(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "noise.ratio", "--values", "0,x"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: config key 'noise.ratio': cannot parse 'x' as float\n"
        assert not out.exists()

    def test_int_key_rejects_float_text_as_its_flag_does(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        assert main(["run", "--config", cfg_path, "--dry-run", "--num_clients", "4.0"]) == 1
        flag_err = capsys.readouterr().err
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", cfg_path, "--output_dir", str(out),
                     "--param", "num_clients", "--values", "3,4.0"])
        assert code == 1
        assert capsys.readouterr().err == flag_err
        assert not out.exists()

    def test_repeated_value_rejected(self, tmp_path, capsys):
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", "--config", cfg_path, "--output_dir", str(out),
             "--param", "noise.ratio", "--values", "0.1,0.1"]
        )
        assert code == 1
        assert "sweep value 0.1 is repeated" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param,values,message",
        [
            ("batch_size", "x,x", "cannot parse 'x' as int"),
            ("nope", "1,2", "unknown config key 'nope'"),
            ("noise.ratio", "0.1,0.10", "sweep value 0.1 is repeated"),
            ("output_dir", "a,b", "output_dir is set per point by the sweep"),
        ],
    )
    def test_dry_run_checks_the_sweep(self, tmp_path, capsys, param, values, message):
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", write_ini(tmp_path, SWEEP_CFG), "--output_dir",
                     str(out), "--dry-run",
                     "--param", param, "--values", values])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param,values,message",
        [
            ("nope", "1,2", "unknown config key 'nope'"),
            ("output_dir", "a,b", "output_dir is set per point by the sweep"),
        ],
    )
    def test_rejected_parameter_writes_nothing(self, tmp_path, capsys, param, values, message):
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", write_ini(tmp_path, SWEEP_CFG), "--output_dir",
                     str(out), "--param", param, "--values", values])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param,values",
        [("local_lr", "0.05,0.2"), ("global_lr", "0.5,1.0"), ("local_epochs", "0,2"),
         ("val_frac", "0.2,0.3"), ("lambda", "0,0.9")],
    )
    def test_any_key_runs_every_point_and_records_the_value_that_ran(
        self, tmp_path, param, values
    ):
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", write_ini(tmp_path, SWEEP_CFG), "--output_dir",
                     str(out), "--rounds", "1", "--param", param, "--values", values])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        texts = values.split(",")
        assert len(payload["results"]) == len(texts)
        for text, rec in zip(texts, payload["results"]):
            point = out / f"{param}={text}"
            summary = json.loads((point / "summary.json").read_text(encoding="utf-8"))
            assert rec["value"] == summary["manifest"]["config"][param]
            assert sorted(rec["final_accuracy"]) == ["fedavg", "gcfl"]

    def test_dry_run_prints_the_run_echo(self, tmp_path, capsys):
        out = tmp_path / "sweepout"
        flags = ["--config", write_ini(tmp_path, SWEEP_CFG), "--output_dir", str(out), "--dry-run"]
        assert main(["run", *flags]) == 0
        run_echo = capsys.readouterr().out
        assert main(["sweep", *flags, "--param", "seed", "--values", "0,1"]) == 0
        assert capsys.readouterr().out == run_echo
        assert not out.exists()

    def sweep_one(self, tmp_path, param, text):
        """Sweep one value; returns (recorded value, run manifest, point dir)."""
        cfg_path = write_ini(tmp_path, SWEEP_CFG.replace("rounds = 4", "rounds = 1"))
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", cfg_path, "--output_dir", str(out),
                     "--param", param, "--values", text, "--noise.kind", "closed_set"])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        (point,) = [p for p in out.iterdir() if p.is_dir()]
        summary = json.loads((point / "summary.json").read_text(encoding="utf-8"))
        return payload["results"][0]["value"], summary["manifest"], point.name

    def test_value_that_runs_is_value_recorded(self, tmp_path):
        value, manifest, name = self.sweep_one(tmp_path, "noise.ratio", "0.1234567")
        assert value == manifest["config"]["noise"]["ratio"] == 0.1234567
        assert name == "noise.ratio=0.1234567"

    def test_integral_value_keeps_integer_text(self, tmp_path):
        value, manifest, name = self.sweep_one(tmp_path, "num_clients", "4")
        assert value == manifest["config"]["num_clients"] == 4
        assert name == "num_clients=4"

    def test_large_seed_keeps_integer_text(self, tmp_path):
        # %g would give 1.23457e+07, which no int key parses
        value, manifest, name = self.sweep_one(tmp_path, "seed", "12345678")
        assert value == manifest["config"]["seed"] == 12345678
        assert name == "seed=12345678"

    def test_seed_above_two_to_the_53_runs_exactly(self, tmp_path):
        # a float holds no odd integer above 2**53
        seed = 2**53 + 1
        value, manifest, name = self.sweep_one(tmp_path, "seed", str(seed))
        assert value == manifest["seed"] == manifest["config"]["seed"] == seed
        assert name == f"seed={seed}"

    def test_path_entries_stay_one_directory_under_output_dir(self, tmp_path, monkeypatch):
        from worldgen import blobs

        entries = ["data/d0.csv", "data/../../esc.csv", "d\\%1.csv"]
        work = tmp_path / "work"
        (work / "data").mkdir(parents=True)
        for entry in entries:
            write_csv(blobs(3, 3, np.ones(3), 30, seed=0), work / entry)
        cfg_path = write_ini(tmp_path, SWEEP_CFG)
        inputs = set(tmp_path.rglob("*"))
        monkeypatch.chdir(work)
        code = main(["sweep", "--config", cfg_path, "--output_dir", "out", "--rounds", "1",
                     "--dataset.kind", "csv", "--dataset.csv_path", entries[0],
                     "--param", "dataset.csv_path", "--values", ",".join(entries)])
        assert code == 0
        out = work / "out"
        names = ["data%2Fd0.csv", "data%2F..%2F..%2Fesc.csv", "d%5C%251.csv"]
        points = [out / f"dataset.csv_path={name}" for name in names]
        assert sorted(out.iterdir()) == sorted([*points, out / "sweep.json"])
        assert all((point / "summary.json").exists() for point in points)
        assert all(out in path.parents for path in set(tmp_path.rglob("*")) - inputs - {out})
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [rec["value"] for rec in payload["results"]] == entries

    @pytest.mark.parametrize(
        "values,ran,over_arms",
        [("fedavg,gcfl", ["fedavg", "gcfl"], []),
         ("fedprox:0.5", ["fedprox_mu0.5"], ["fedprox_mu0.5"])],
    )
    def test_arms_sweep_lists_only_arms_that_ran_at_every_point(
        self, tmp_path, values, ran, over_arms
    ):
        out = tmp_path / "sweepout"
        code = main(["sweep", "--config", write_ini(tmp_path, SWEEP_CFG), "--output_dir",
                     str(out), "--rounds", "2", "--param", "arms", "--values", values])
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [list(rec["final_accuracy"]) for rec in payload["results"]] == [[a] for a in ran]
        over = payload["over_points"]
        assert sorted(over["arms"]) == over_arms and over["pairs"] == {}
        assert all(sorted(over["arms"][arm]) == ["final_accuracy"] for arm in over_arms)

    def seed_sweep(self, tmp_path, *values_flags):
        out = tmp_path / "seeds"
        code = main(["sweep", "--config", write_ini(tmp_path, SMALL_RUN), "--output_dir",
                     str(out), "--arms",
                     "fedavg,gcfl,random", "--param", "seed", *values_flags])
        return code, out

    def test_seed_points_equal_single_runs(self, tmp_path):
        code, out = self.seed_sweep(tmp_path, "--values", "0,7")
        assert code == 0
        for seed in (0, 7):
            single = tmp_path / f"single{seed}"
            assert main(["run", "--config", write_ini(tmp_path, SMALL_RUN), "--output_dir",
                         str(single), "--arms",
                         "fedavg,gcfl,random", "--seed", str(seed)]) == 0
            for name in ("fedavg.csv", "gcfl.csv", "random.csv"):
                assert (out / f"seed={seed}" / name).read_bytes() == (single / name).read_bytes()

    def test_statistics_over_points(self, tmp_path):
        code, out = self.seed_sweep(tmp_path, "--values", "0,1,2")
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        records = payload["results"]
        assert [rec["value"] for rec in records] == [0, 1, 2]
        for rec in records:
            assert sorted(rec["final_clean_fraction"]) == ["gcfl", "random"]
            assert rec["diverged_round"] == {}
        stats = payload["over_points"]
        assert sorted(stats["arms"]["fedavg"]) == ["final_accuracy"]
        assert sorted(stats["arms"]["gcfl"]) == ["final_accuracy", "final_clean_fraction"]
        assert sorted(stats["pairs"]) == ["gcfl - fedavg", "random - fedavg", "random - gcfl"]
        assert sorted(stats["pairs"]["random - gcfl"]) == [
            "final_accuracy", "final_clean_fraction"
        ]
        acc = np.array([[rec["final_accuracy"][a] for a in ("fedavg", "gcfl")] for rec in records])
        assert stats["arms"]["gcfl"]["final_accuracy"] == pytest.approx(
            {"mean": acc[:, 1].mean(), "std": acc[:, 1].std(),
             "min": acc[:, 1].min(), "max": acc[:, 1].max()}, abs=1e-12
        )
        gap = acc[:, 1] - acc[:, 0]
        assert stats["pairs"]["gcfl - fedavg"]["final_accuracy"] == pytest.approx(
            {"mean": gap.mean(), "std": gap.std(), "min": gap.min(), "max": gap.max(),
             "wins": int((gap > 0).sum())}, abs=1e-12
        )

    def test_fine_tuned_accuracy_per_arm_and_over_points(self, tmp_path):
        code, out = self.seed_sweep(tmp_path, "--values", "0,1", "--fine_tune_epochs", "1")
        assert code == 0
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        arms = ["fedavg", "gcfl", "random"]
        for rec in payload["results"]:
            summary = json.loads(
                (out / f"seed={rec['value']}" / "summary.json").read_text(encoding="utf-8")
            )
            assert rec["fine_tuned_accuracy"] == {
                arm: summary["arms"][arm]["fine_tuned_accuracy"] for arm in arms
            }
        over = payload["over_points"]
        for arm in arms:
            tuned = [rec["fine_tuned_accuracy"][arm] for rec in payload["results"]]
            assert over["arms"][arm]["fine_tuned_accuracy"]["mean"] == pytest.approx(
                np.mean(tuned), abs=1e-12
            )
        gap = over["pairs"]["gcfl - fedavg"]["fine_tuned_accuracy"]
        assert sorted(gap) == ["max", "mean", "min", "std", "wins"]

    def test_negative_seed_fails_before_any_point_runs(self, tmp_path, capsys):
        for values_flags in (["--values=-1,0"], ["--values", "-1,0"]):
            code, out = self.seed_sweep(tmp_path, *values_flags)
            assert code == 1
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
            assert not out.exists()

    def test_arm_isolation_same_fingerprint(self, tmp_path):
        cfg_path = write_ini(tmp_path, SMALL_RUN)
        out = tmp_path / "iso"
        assert main(["run", "--config", cfg_path, "--output_dir", str(out)]) == 0
        with open(out / "summary.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        # one manifest for the whole run: every arm saw the same realization
        assert len(payload["arms"]) == 3
        assert payload["manifest"]["dataset_fingerprint"]


class TestDivergence:
    BLOW_UP = ["--local_lr", "1e300", "--global_lr", "1e10"]

    def test_diverging_arms_stop_record_their_round_and_exit_nonzero(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", *self.BLOW_UP, "--rounds", "5", "--arms", "fedavg,gcfl",
             "--output_dir", str(out)]
        )
        assert code == 1
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        stopped = {arm: summary["arms"][arm]["diverged_round"] for arm in ("fedavg", "gcfl")}
        # the guard's lines are all of stderr: numpy's warnings stay silent
        assert capsys.readouterr().err == "".join(
            f"error: arm {arm} diverged at round {t}\n" for arm, t in stopped.items()
        )
        for arm, t in stopped.items():
            assert 0 <= t < 5
            rounds = (out / f"{arm}.csv").read_text(encoding="utf-8").splitlines()[1:]
            assert [int(row.split(",")[0]) for row in rounds] == list(range(t + 1))
        # a stopped arm's truncated ledger enters no cost ratio
        assert summary["comparisons"] == {}

    def test_the_other_arms_still_run(self, tmp_path, capsys):
        # at this budget no client of a coreset arm trains, so they cannot diverge
        out = tmp_path / "results"
        code = main(
            ["run", *self.BLOW_UP, "--rounds", "3", "--arms", "fedavg,random,gcfl",
             "--budget_fraction", "0.0001", "--fine_tune_epochs", "1",
             "--output_dir", str(out)]
        )
        assert code == 1
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert "diverged_round" in summary["arms"]["fedavg"]
        assert "fine_tuned_accuracy" not in summary["arms"]["fedavg"]
        for arm in ("random", "gcfl"):
            assert "diverged_round" not in summary["arms"][arm]
            assert "fine_tuned_accuracy" in summary["arms"][arm]
            assert len((out / f"{arm}.csv").read_text(encoding="utf-8").splitlines()) == 4
        assert capsys.readouterr().err.count("diverged") == 1

    def test_a_diverged_fine_tune_is_an_error_not_an_accuracy(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            ["run", "--rounds", "0", "--fine_tune_epochs", "3", "--local_lr", "1e308",
             "--arms", "fedavg", "--output_dir", str(out)]
        )
        assert code == 1
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        entry = summary["arms"]["fedavg"]
        assert entry["fine_tune_diverged"] is True and "fine_tuned_accuracy" not in entry
        assert "diverged_round" not in entry
        # the guard's line is all of stderr: numpy's warnings stay silent
        assert capsys.readouterr().err == "error: arm fedavg diverged in the fine-tune\n"

    def test_sweep_exits_nonzero_when_a_point_diverged(self, tmp_path):
        # at this budget no random client trains, so only fedavg diverges
        out = tmp_path / "sweepout"
        code = main(
            ["sweep", *self.BLOW_UP, "--rounds", "2", "--arms", "fedavg,random",
             "--budget_fraction", "0.0001", "--param", "seed", "--values", "0,1",
             "--output_dir", str(out)]
        )
        assert code == 1
        payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
        assert [rec["value"] for rec in payload["results"]] == [0, 1]
        for rec in payload["results"]:
            summary = json.loads(
                (out / f"seed={rec['value']}" / "summary.json").read_text(encoding="utf-8")
            )
            assert rec["diverged_round"] == {"fedavg": summary["arms"]["fedavg"]["diverged_round"]}
            # a diverged arm's accuracy is no result, so the point leaves it out
            assert set(rec["final_accuracy"]) == {"random"}
            assert set(rec["final_clean_fraction"]) == {"random"}
        over = payload["over_points"]
        assert over["arms"]["fedavg"] == {}
        assert set(over["arms"]["random"]) == {"final_accuracy", "final_clean_fraction"}
        assert over["pairs"] == {"random - fedavg": {}}
