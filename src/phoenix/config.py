"""Declarative run configuration: one JSON document drives every command.

A config names a dataset, a partitioning regime, the model and diffusion
settings, the federation parameters, and the metric settings, plus the run
seed and output directory. Every field's default is the ``desk`` preset
(minutes on a laptop CPU), so a document without a top-level ``"preset"``
key starts from desk; ``{"preset": "paper"}`` (the full-scale setup)
starts from the values where paper differs. Either way the document's own
sections override field by field.

Environment overrides: PHOENIX_SEED and PHOENIX_OUT (seed and output
directory only).
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datasets import Dataset, load_cifar10, make_toy_dataset
from .federation import FederationConfig
from .filtering import DropPolicy
from .metrics import KNN_K
from .schedule import NoiseSchedule, cosine_schedule, linear_schedule
from .seeding import DOMAIN_DATA, derive_seed
from .unet import DenoiserConfig


class ConfigError(ValueError):
    """The run configuration is malformed or references unknown names."""


@dataclass
class DatasetSpec:
    kind: str = "toy"
    classes: int = 4
    per_class: int = 125
    test_per_class: int = 64
    path: str = "data/cifar-10-batches-bin"

    def validate(self) -> None:
        if self.kind not in ("toy", "cifar10"):
            raise ConfigError(f"unknown dataset kind '{self.kind}'")


@dataclass
class PartitionSpec:
    mode: str = "label_skew"
    classes_per_client: int = 2
    beta_pct: float = 25.0
    alpha_pct: float = 100.0

    def validate(self) -> None:
        if self.mode not in ("iid", "label_skew", "data_sharing"):
            raise ConfigError(f"unknown partition mode '{self.mode}'")
        if not 0 < self.beta_pct <= 100:  # NaN compares false, so it is refused
            raise ConfigError(f"partition.beta_pct must lie in (0, 100], got {self.beta_pct}")
        if not 0 <= self.alpha_pct <= 100:
            raise ConfigError(f"partition.alpha_pct must lie in [0, 100], got {self.alpha_pct}")
        if self.classes_per_client < 1:
            raise ConfigError(
                f"partition.classes_per_client must be at least 1, got {self.classes_per_client}")


@dataclass
class DiffusionSpec:
    schedule: str = "cosine"
    steps: int = 50

    def validate(self) -> None:
        if self.schedule not in ("linear", "cosine"):
            raise ConfigError(f"unknown schedule kind '{self.schedule}'")

    def build(self) -> NoiseSchedule:
        if self.schedule == "linear":
            return linear_schedule(self.steps)
        return cosine_schedule(self.steps)


@dataclass
class FederationSpec:
    client_count: int = 4
    server_rounds: int = 5
    local_epochs: int = 5
    batch_size: int = 8
    learning_rate: float = 2e-3
    warmup_epochs: int = 5
    optimizer: str = "adam"
    personalization: bool = False
    threshold_filtering: bool = False
    drop_threshold: float = DropPolicy.threshold
    eval_sample_count: int = 128  # read by nothing; perfbench sets it (ROADMAP item 13)
    eval_start_round: int = 4
    min_active_clients: int = 2

    def build_policy(self) -> DropPolicy:
        return DropPolicy(threshold=self.drop_threshold)


@dataclass
class MetricsSpec:
    eval_sample_count: int = 256
    classifier_epochs: int = 4

    def validate(self) -> None:
        if self.classifier_epochs < 0:
            raise ConfigError(
                f"classifier_epochs must be non-negative, got {self.classifier_epochs}")


@dataclass
class RunConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    model: DenoiserConfig = field(default_factory=DenoiserConfig)
    diffusion: DiffusionSpec = field(default_factory=DiffusionSpec)
    federation: FederationSpec = field(default_factory=FederationSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    seed: int = 42
    out_dir: str = "out"
    run_id: str | None = None

    def validate(self) -> None:
        """Refuse a config no command can run: every section's rules, a model
        of more than one channel on the grayscale toy images, every rule of
        ``FederationConfig.validate``, the k-NN sample-set sizes and a
        ``run_id`` that names one directory."""
        self.dataset.validate()
        self.partition.validate()
        self.diffusion.validate()
        self.metrics.validate()
        self.model.validate()
        if self.dataset.kind == "toy" and self.model.image_channels != 1:
            raise ConfigError(
                f"toy images have 1 channel, the model takes {self.model.image_channels}")
        self.federation_config()
        # precision/recall need a k-th neighbour inside every sample set
        need = KNN_K + 1
        sample_sets = {"metrics.eval_sample_count": self.metrics.eval_sample_count}
        if self.dataset.kind == "toy":  # the CIFAR-10 test batch always holds 10000
            sample_sets["dataset.classes*test_per_class"] = (
                self.dataset.classes * self.dataset.test_per_class)
        for key, count in sample_sets.items():
            if count < need:
                raise ConfigError(f"{key}={count} is below k+1={need}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # the run directory is out_dir/runs/<run_id>, so run_id must not leave it
        if self.run_id and (self.run_id in (".", "..") or "/" in self.run_id
                            or os.sep in self.run_id):
            raise ConfigError(f"run_id must be a single path component, got {self.run_id!r}")

    def federation_config(self) -> FederationConfig:
        """This run's ``FederationConfig``; raises ``ValueError`` on a broken rule."""
        f = self.federation
        fed = FederationConfig(
            client_count=f.client_count,
            server_rounds=f.server_rounds,
            local_epochs=f.local_epochs,
            batch_size=f.batch_size,
            learning_rate=f.learning_rate,
            schedule=self.diffusion.build(),
            warmup_epochs=f.warmup_epochs,
            optimizer=f.optimizer,
            personalization=f.personalization,
            threshold_filtering=f.threshold_filtering,
            drop_policy=f.build_policy(),
            eval_sample_count=f.eval_sample_count,
            eval_start_round=f.eval_start_round,
            min_active_clients=f.min_active_clients,
        )
        fed.validate()
        return fed

    def model_config(self) -> DenoiserConfig:
        return self.model

    def resolved_run_id(self) -> str:
        if self.run_id:
            return self.run_id
        return f"{self.strategy_label()}-seed{self.seed}"

    def strategy_label(self) -> str:
        if self.partition.mode == "data_sharing":
            label = (f"data_sharing_b{self.partition.beta_pct:g}"
                     f"_a{self.partition.alpha_pct:g}")
        else:
            label = self.partition.mode
        if self.federation.personalization:
            label += "+personalization"
        if self.federation.threshold_filtering:
            label += f"+filter_{self.federation.build_policy().label()}"
        return label


def load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Resolve (train, test) datasets for a config; toy images take the
    model's side."""
    spec = cfg.dataset
    if spec.kind == "cifar10":
        return load_cifar10(spec.path, "train"), load_cifar10(spec.path, "test")
    side = cfg.model_config().image_side
    train = make_toy_dataset(spec.classes, spec.per_class, side,
                             derive_seed(cfg.seed, DOMAIN_DATA, 0))
    test = make_toy_dataset(spec.classes, spec.test_per_class, side,
                            derive_seed(cfg.seed, DOMAIN_DATA, 1))
    return train, test


# The section defaults are the desk preset; paper lists where it differs.
_PRESETS: dict[str, dict] = {
    "desk": {},
    "paper": {
        "dataset": {"kind": "cifar10"},
        "model": {"image_channels": 3, "image_side": 32, "base_channels": 64, "depth": 4,
                  "time_embed_dim": 128},
        "diffusion": {"steps": 1000},
        "federation": {"client_count": 10, "server_rounds": 10, "local_epochs": 100,
                       "batch_size": 128, "learning_rate": 1e-4, "eval_start_round": 5},
        "metrics": {"eval_sample_count": 10000, "classifier_epochs": 10},
    },
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


_SECTION_TYPES = {
    "dataset": DatasetSpec,
    "partition": PartitionSpec,
    "model": DenoiserConfig,
    "diffusion": DiffusionSpec,
    "federation": FederationSpec,
    "metrics": MetricsSpec,
}


def _check_types(cls, doc: dict, prefix: str = "") -> None:
    """Refuse any value of ``doc`` whose type is not its field's annotation in
    ``cls``; an int stands for a float, a bool never stands for a number."""
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        allowed = typing.get_args(hints[key]) or (hints[key],)
        if type(value) in allowed or (float in allowed and type(value) is int):
            continue
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ConfigError(f"{prefix}{key} must be {names}, got {value!r}")


def _build_section(cls, doc: dict, section: str):
    valid = {f.name for f in fields(cls)}
    unknown = set(doc) - valid
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    _check_types(cls, doc, f"{section}.")
    return cls(**doc)


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if preset is not None:
        if not isinstance(preset, str) or preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r} (available: {preset_names()})"
            )
        doc = _merge(_PRESETS[preset], doc)
    kwargs: dict = {}
    for section, cls in _SECTION_TYPES.items():
        if section in doc:
            value = doc.pop(section)
            if not isinstance(value, dict):
                raise ConfigError(f"section '{section}' must be an object")
            kwargs[section] = _build_section(cls, value, section)
    scalars = {key: doc.pop(key) for key in ("seed", "out_dir", "run_id") if key in doc}
    _check_types(RunConfig, scalars)
    kwargs.update(scalars)
    if doc:
        raise ConfigError(f"unknown top-level config keys: {sorted(doc)}")
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_config(source: str | Path) -> RunConfig:
    """Load a config from a preset name or a JSON file path."""
    name = str(source)
    if name in _PRESETS:
        return config_from_dict({"preset": name})
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"config '{source}' is neither a preset ({preset_names()}) "
            f"nor an existing file"
        )
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(doc)


def apply_env_overrides(cfg: RunConfig, environ=os.environ) -> RunConfig:
    """PHOENIX_SEED and PHOENIX_OUT override the config document."""
    if "PHOENIX_SEED" in environ:
        try:
            cfg.seed = int(environ["PHOENIX_SEED"])
        except ValueError:
            raise ConfigError(
                f"PHOENIX_SEED must be an integer, got {environ['PHOENIX_SEED']!r}"
            ) from None
    if "PHOENIX_OUT" in environ:
        cfg.out_dir = environ["PHOENIX_OUT"]
    return cfg
