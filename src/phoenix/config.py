"""Declarative run configuration: one JSON document drives every command.

A config names a dataset, a partitioning regime, the model and diffusion
settings, the federation parameters, and the metric settings, plus the run
seed and output directory. Presets ``desk`` (minutes on a laptop CPU) and
``paper`` (the full-scale setup) ship in-tree; a config file may start from
a preset via a top-level ``{"preset": ...}`` key and override sections.

Environment overrides: PHOENIX_SEED and PHOENIX_OUT (seed and output
directory only).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .datasets import Dataset, load_cifar10, make_toy_dataset
from .filtering import DropPolicy
from .schedule import NoiseSchedule, cosine_schedule, linear_schedule
from .seeding import DOMAIN_DATA, derive_seed
from .unet import DenoiserConfig


class ConfigError(ValueError):
    """The run configuration is malformed or references unknown names."""


MODEL_PRESETS = {
    "desk": DenoiserConfig(image_channels=1, image_side=8, base_channels=16,
                           depth=2, blocks_per_stage=1, time_embed_dim=32),
    "paper": DenoiserConfig(image_channels=3, image_side=32, base_channels=64,
                            depth=4, blocks_per_stage=1, time_embed_dim=128),
}


@dataclass
class DatasetSpec:
    kind: str = "toy"
    classes: int = 4
    per_class: int = 125
    side: int = 8
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


@dataclass
class DiffusionSpec:
    schedule: str = "cosine"
    steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    cosine_offset: float = 0.008

    def validate(self) -> None:
        if self.schedule not in ("linear", "cosine"):
            raise ConfigError(f"unknown schedule kind '{self.schedule}'")

    def build(self) -> NoiseSchedule:
        if self.schedule == "linear":
            return linear_schedule(self.steps, self.beta_start, self.beta_end)
        return cosine_schedule(self.steps, self.cosine_offset)


@dataclass
class FederationSpec:
    client_count: int = 10
    server_rounds: int = 10
    local_epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-4
    warmup_epochs: int = 5
    optimizer: str = "adam"
    personalization: bool = False
    threshold_filtering: bool = False
    drop_policy: str = "lowest_precision"
    drop_threshold: float = 0.7
    drop_immediate: bool = False
    eval_sample_count: int = 1000
    eval_start_round: int = 5
    min_active_clients: int = 2

    def build_policy(self) -> DropPolicy:
        return DropPolicy(kind=self.drop_policy, threshold=self.drop_threshold,
                          immediate=self.drop_immediate)


@dataclass
class MetricsSpec:
    feature_space: str = "classifier"
    knn_k: int = 3
    is_splits: int = 10
    eval_sample_count: int = 256
    classifier_epochs: int = 4

    def validate(self) -> None:
        if self.feature_space not in ("classifier", "pixels"):
            raise ConfigError(f"unknown feature space '{self.feature_space}'")


@dataclass
class RunConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    model: str | dict = "desk"
    diffusion: DiffusionSpec = field(default_factory=DiffusionSpec)
    federation: FederationSpec = field(default_factory=FederationSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    seed: int = 42
    out_dir: str = "out"
    run_id: str | None = None

    def validate(self) -> None:
        self.dataset.validate()
        self.partition.validate()
        self.diffusion.validate()
        self.metrics.validate()
        self.model_config().validate()
        self.federation.build_policy().validate()
        # precision/recall need a k-th neighbour inside every sample set
        need = self.metrics.knn_k + 1
        sample_sets = {"metrics.eval_sample_count": self.metrics.eval_sample_count}
        if self.federation.threshold_filtering:
            sample_sets["federation.eval_sample_count"] = self.federation.eval_sample_count
        for key, count in sample_sets.items():
            if count < need:
                raise ConfigError(f"{key}={count} is below knn_k+1={need}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def model_config(self) -> DenoiserConfig:
        if isinstance(self.model, str):
            if self.model not in MODEL_PRESETS:
                raise ConfigError(
                    f"unknown model preset '{self.model}' "
                    f"(available: {sorted(MODEL_PRESETS)})"
                )
            return MODEL_PRESETS[self.model]
        try:
            return DenoiserConfig(**self.model)
        except TypeError as exc:
            raise ConfigError(f"bad model config: {exc}") from None

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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def load_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Resolve (train, test) datasets for a config."""
    spec = cfg.dataset
    if spec.kind == "cifar10":
        return load_cifar10(spec.path, "train"), load_cifar10(spec.path, "test")
    train = make_toy_dataset(spec.classes, spec.per_class, spec.side,
                             derive_seed(cfg.seed, DOMAIN_DATA, 0))
    test = make_toy_dataset(spec.classes, spec.test_per_class, spec.side,
                            derive_seed(cfg.seed, DOMAIN_DATA, 1))
    return train, test


_PRESETS: dict[str, dict] = {
    "desk": {
        "dataset": {"kind": "toy", "classes": 4, "per_class": 125, "side": 8,
                    "test_per_class": 64},
        "partition": {"mode": "label_skew", "classes_per_client": 2,
                      "beta_pct": 25.0, "alpha_pct": 100.0},
        "model": "desk",
        "diffusion": {"schedule": "cosine", "steps": 50},
        "federation": {"client_count": 4, "server_rounds": 5, "local_epochs": 5,
                       "batch_size": 8, "learning_rate": 2e-3,
                       "warmup_epochs": 5, "eval_sample_count": 128,
                       "eval_start_round": 4, "min_active_clients": 2},
        "metrics": {"feature_space": "classifier", "knn_k": 3, "is_splits": 10,
                    "eval_sample_count": 256, "classifier_epochs": 4},
        "seed": 42,
        "out_dir": "out",
    },
    "paper": {
        "dataset": {"kind": "cifar10", "path": "data/cifar-10-batches-bin"},
        "partition": {"mode": "label_skew", "classes_per_client": 2,
                      "beta_pct": 25.0, "alpha_pct": 100.0},
        "model": "paper",
        "diffusion": {"schedule": "cosine", "steps": 1000},
        "federation": {"client_count": 10, "server_rounds": 10,
                       "local_epochs": 100, "batch_size": 128,
                       "learning_rate": 1e-4, "warmup_epochs": 5,
                       "eval_sample_count": 1000, "eval_start_round": 5,
                       "min_active_clients": 2},
        "metrics": {"feature_space": "classifier", "knn_k": 3, "is_splits": 10,
                    "eval_sample_count": 10000, "classifier_epochs": 10},
        "seed": 42,
        "out_dir": "out",
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
    "diffusion": DiffusionSpec,
    "federation": FederationSpec,
    "metrics": MetricsSpec,
}


def _build_section(cls, doc: dict, section: str):
    valid = {f.name for f in fields(cls)}
    unknown = set(doc) - valid
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    return cls(**doc)


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if preset is not None:
        if preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}' (available: {preset_names()})"
            )
        doc = _merge(_PRESETS[preset], doc)
    kwargs: dict = {}
    for section, cls in _SECTION_TYPES.items():
        if section in doc:
            value = doc.pop(section)
            if not isinstance(value, dict):
                raise ConfigError(f"section '{section}' must be an object")
            kwargs[section] = _build_section(cls, value, section)
    for key in ("model", "seed", "out_dir", "run_id"):
        if key in doc:
            kwargs[key] = doc.pop(key)
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
