"""Experiment configuration: dataclass, INI-style files, CLI overrides.

Config files use ``key = value`` lines under the sections ``[dataset]``,
``[model]``, ``[topology]``, ``[train]``, ``[evolution]``, ``[seeds]``,
and ``[output]``.  Every knob has a default, every seed is explicit after
resolution, and the resolved config echoes back to the same format, so a
run's ``manifest.txt`` reproduces the run when fed back in.  Two sections
are skipped on load: the ``[result]`` block a manifest carries, and the
``[score]`` weights that older configs and manifests carry (scoring takes
its weight on the command line).

:class:`ExperimentConfig` is the only list of knobs: each field names its
section and key, and its default's type fixes how its text is parsed.
"""
from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .evolution import MAGNITUDE_SET, EvolutionPolicy
from .network import HE_UNIFORM, SHARED, check_network_options
from .topology import ER_MODE, BlockDensitySpec

EVOLUTION_NONE = "none"


def _knob(section: str, default, key: str | None = None):
    """A field echoed under ``[section]`` as ``key`` (default: its name)."""
    return field(default=default, metadata={"section": section, "key": key})


@contextmanager
def _as_config_error():
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    """Every knob of one training run, flat, with defaults.

    Field order is the echo order of :func:`config_to_text`.
    """

    dataset_kind: str = _knob("dataset", "labeled_csv", "kind")  # or idx
    csv_path: str = _knob("dataset", "")
    label_column: int = _knob("dataset", -1)
    test_fraction: float = _knob("dataset", 1.0 / 3.0)
    train_images: str = _knob("dataset", "")
    train_labels: str = _knob("dataset", "")
    test_images: str = _knob("dataset", "")
    test_labels: str = _knob("dataset", "")
    cache_path: str = _knob("dataset", "")
    standardize: bool = _knob("dataset", True)
    train_limit: int = _knob("dataset", 0)  # 0 = use everything
    test_limit: int = _knob("dataset", 0)
    hidden_sizes: tuple[int, ...] = _knob("model", (256, 256))
    motif_size: int = _knob("model", 1)
    weight_mode: str = _knob("model", SHARED)
    activation: str = _knob("model", "relu")
    init_scheme: str = _knob("model", HE_UNIFORM)
    density_mode: str = _knob("topology", ER_MODE)
    density_value: float = _knob("topology", 20.0)
    epochs: int = _knob("train", 10)
    learning_rate: float = _knob("train", 0.05)
    batch_size: int = _knob("train", 64)  # 0 = full batch
    evolution_mode: str = _knob("evolution", MAGNITUDE_SET, "mode")
    zeta: float = _knob("evolution", 0.3)
    epsilon_prune: float = _knob("evolution", 0.1)
    noise_scale: float = _knob("evolution", 0.01)
    evolution_period: int = _knob("evolution", 1, "period")
    # seeds (all explicit so a manifest fully pins the run)
    topology_seed: int = _knob("seeds", 42, "topology")
    init_seed: int = _knob("seeds", 42, "init")
    evolution_seed: int = _knob("seeds", 42, "evolution")
    split_seed: int = _knob("seeds", 42, "split")
    shuffle_seed: int = _knob("seeds", 42, "shuffle")
    out_dir: str = _knob("output", "runs/latest")

    def density_spec(self) -> BlockDensitySpec:
        """The topology sampler's density; ConfigError when out of range."""
        with _as_config_error():
            return BlockDensitySpec(self.density_mode, self.density_value)

    def evolution_policy(self) -> EvolutionPolicy | None:
        """The evolution policy, or None when the mode is ``none``.

        The rates are checked in every mode, so a manifest never records an
        out-of-range value.  Raises :class:`ConfigError`.
        """
        off = self.evolution_mode == EVOLUTION_NONE
        with _as_config_error():
            policy = EvolutionPolicy(
                mode=MAGNITUDE_SET if off else self.evolution_mode,
                zeta=self.zeta, epsilon_prune=self.epsilon_prune,
                noise_scale=self.noise_scale, rng_seed=self.evolution_seed,
            )
        return None if off else policy

    def validate(self) -> "ExperimentConfig":
        """Raise :class:`ConfigError` on out-of-range or inconsistent knobs.

        Density, evolution and network options are checked by the same code
        that training uses to build them.
        """
        with _as_config_error():
            check_network_options(self.activation, self.init_scheme,
                                  self.weight_mode)
        self.density_spec()
        self.evolution_policy()
        negative = {name: getattr(self, name) for name in
                    ("train_limit", "test_limit", *SEED_FIELDS)
                    if getattr(self, name) < 0}
        checks = [
            (self.dataset_kind in ("labeled_csv", "idx"),
             f"dataset kind must be labeled_csv or idx, got "
             f"{self.dataset_kind!r}"),
            (all(h >= 1 for h in self.hidden_sizes),
             f"hidden sizes must be positive, got {self.hidden_sizes}"),
            (self.motif_size >= 1,
             f"motif_size must be >= 1, got {self.motif_size}"),
            (self.epochs >= 1, f"epochs must be >= 1, got {self.epochs}"),
            (math.isfinite(self.learning_rate) and self.learning_rate > 0,
             f"learning_rate must be finite and > 0, got "
             f"{self.learning_rate}"),
            (self.batch_size >= 0,
             f"batch_size must be >= 0 (0 = full batch), got "
             f"{self.batch_size}"),
            (self.evolution_period >= 1,
             f"evolution period must be >= 1, got {self.evolution_period}"),
            (self.test_fraction > 0 and self.test_fraction < 1,
             f"test_fraction must be in (0, 1), got {self.test_fraction}"),
            (not negative, f"limits and seeds must be >= 0, got {negative}"),
        ]
        if self.dataset_kind == "labeled_csv" and not self.cache_path:
            checks.append((bool(self.csv_path),
                           "labeled_csv dataset needs csv_path"))
        if self.dataset_kind == "idx" and not self.cache_path:
            checks.append((
                all((self.train_images, self.train_labels, self.test_images,
                     self.test_labels)),
                "idx dataset needs train/test image and label paths"))
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # numbers, booleans and sizes echo as text a config file reads back
        # as is; a string may hold a comment marker, whitespace or a newline
        for section, key, name in SCHEMA:
            value = getattr(self, name)
            if isinstance(value, str) and _read_back(section, key,
                                                      value) != value:
                raise ConfigError(
                    f"{name} = {value!r} would not read back from the "
                    f"manifest as the same value")
        return self


# (section, key, field name) of every knob, in echo order
SCHEMA = tuple((f.metadata["section"], f.metadata["key"] or f.name, f.name)
               for f in fields(ExperimentConfig))
SEED_FIELDS = tuple(name for section, _, name in SCHEMA if section == "seeds")
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_sizes(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError("a width is empty")
    return tuple(int(p) for p in parts)


def _parse_value(name: str, text: str):
    """Parse the text of field ``name`` as its default's type."""
    kind = type(_DEFAULTS[name])
    parse = {bool: _parse_bool, tuple: _parse_sizes}.get(kind, kind)
    try:
        return parse(text.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r} ({exc})") from exc


def _format_value(value) -> str:
    """Config-file text of a field value; :func:`_parse_value` inverts it."""
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ini_parser() -> configparser.ConfigParser:
    """A parser that takes values literally, as every config file is read."""
    return configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                     interpolation=None)


def _read_back(section: str, key: str, text: str) -> str | None:
    """What a ``key = text`` line under ``[section]`` reads back as; None
    when the text does not parse."""
    parser = _ini_parser()
    try:
        parser.read_string(f"[{section}]\n{key} = {text}\n")
    except configparser.Error:
        return None
    return parser.get(section, key)


def _read_ini(path) -> configparser.ConfigParser:
    """Parse a config or manifest file, taking values literally.

    Malformed text (no section header, a duplicate section or key, bytes
    that do not decode, options under ``[DEFAULT]``, which configparser
    would copy into every section) raises ConfigError; an unreadable file,
    OSError.
    """
    parser = _ini_parser()
    try:
        with open(path) as f:
            parser.read_file(f)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: options under [{parser.default_section}] "
                          f"are not allowed; give each its own section")
    return parser


def load_config(path) -> ExperimentConfig:
    """Read a config (or manifest) file on top of the defaults; an
    unreadable file raises ConfigError too."""
    try:
        parser = _read_ini(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    config = ExperimentConfig()
    known = {(section, key): name for section, key, name in SCHEMA}
    for section in parser.sections():
        if section in ("result", "score"):
            continue  # a manifest's results; score weights of older files
        for key, value in parser.items(section):
            name = known.get((section, key))
            if name is None:
                raise ConfigError(
                    f"{path}: unknown option [{section}] {key}"
                )
            setattr(config, name, _parse_value(name, value))
    return config


def apply_overrides(config: ExperimentConfig, overrides: dict
                    ) -> ExperimentConfig:
    """Set non-None override values (CLI flags) onto the config.

    String values are parsed as a config file's are.
    """
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in _DEFAULTS:
            raise ConfigError(f"unknown config field {name!r}")
        if isinstance(value, str):
            value = _parse_value(name, value)
        setattr(config, name, value)
    return config


def config_to_text(config: ExperimentConfig,
                   result: dict | None = None) -> str:
    """Echo a config (plus an optional ``[result]`` section) as INI text."""
    sections: dict[str, list[str]] = {}
    for section, key, name in SCHEMA:
        sections.setdefault(section, []).append(
            f"{key} = {_format_value(getattr(config, name))}")
    if result:
        sections["result"] = [f"{key} = {_format_value(value)}"
                              for key, value in result.items()]
    return "\n\n".join("\n".join([f"[{section}]", *lines])
                       for section, lines in sections.items()) + "\n"


def read_manifest_result(path) -> dict:
    """Return the ``[result]`` section of a manifest as a string dict.

    An unreadable manifest raises OSError, like any other input file.
    """
    parser = _read_ini(path)
    if not parser.has_section("result"):
        return {}
    return dict(parser.items("result"))


def preset_path(name: str) -> Path:
    """Path of a bundled preset config (``motifset --preset <name>``)."""
    here = Path(__file__).resolve().parent / "presets" / f"{name}.cfg"
    if not here.exists():
        available = sorted(p.stem for p in here.parent.glob("*.cfg"))
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available)}"
        )
    return here
