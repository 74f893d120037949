"""Command-line pipeline: partition, warmup, train, generate, evaluate, report.

Every command is driven by one RunConfig (a preset name or a JSON file) and
writes only under the configured output directory. Exit codes: 0 success,
2 configuration or input error, 3 runtime failure. Each command that needs the
client split cuts it from the config; ``warmup`` and ``train`` refuse to start
unless ``plan.json`` holds the very plan they cut, and ``train`` refuses a
warmup model unless ``warmup.json`` records the plan and settings its own
config would warm up from.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import diffusion
from .autodiff import NumericError
from .classifier import load_classifier, save_classifier, train_eval_classifier
from .config import (
    ConfigError,
    RunConfig,
    apply_env_overrides,
    load_config,
    load_datasets,
    preset_names,
)
from .datasets import DataFormatError, Dataset
from .federation import FederationError, run_federation, warmup_train
from .formats import (
    FormatError,
    image_extension,
    read_params,
    read_tensor,
    write_checkpoint,
    write_csv,
    write_image,
    write_json,
    write_tensor,
)
from .metrics import MetricsContext, compute_report, sorted_histogram
from .parallel import check_workers
from .partition import (
    MODE_DATA_SHARING,
    MODE_IID,
    MODE_LABEL_SKEW,
    PartitionPlan,
    data_sharing_split,
    partition_iid,
    partition_label_skew,
    plan_to_json,
    save_plan,
)
from .seeding import DOMAIN_SAMPLE, derive_seed
from .unet import DenoiserModel, build_unet

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# An OSError with one of these numbers is the machine running short (a fork
# with no process or memory to spare), not a bad input: a runtime failure.
OUT_OF_RESOURCES = (errno.EAGAIN, errno.ENOMEM)

PLAN_FILE = "plan.json"
WARMUP_CHECKPOINT = "round_0.phxc"
WARMUP_LOSS_FILE = "warmup_loss.csv"
WARMUP_RECORD = "warmup.json"
CLASSIFIER_FILE = "eval_classifier.phxc"


class InputError(ValueError):
    """A required input file is missing or unusable."""


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    apply_env_overrides(cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


def _read_json_object(path: Path) -> dict:
    """The JSON object ``path`` holds; ``InputError`` naming the file if it
    is not JSON or not a JSON object."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise InputError(f"{path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object")
    return doc


def _cut_plan(cfg: RunConfig, train: Dataset) -> PartitionPlan:
    """The plan ``cfg``'s partition mode cuts from ``train``."""
    p, clients = cfg.partition, cfg.federation.client_count
    if p.mode == MODE_IID:
        return partition_iid(train, clients, cfg.seed)
    if p.mode == MODE_LABEL_SKEW:
        return partition_label_skew(train, clients, p.classes_per_client, cfg.seed)
    return data_sharing_split(train, clients, p.beta_pct, p.alpha_pct,
                              p.classes_per_client, cfg.seed)


def _require_same(path: Path, expected: dict, label: str, command: str) -> None:
    """``InputError`` unless ``path`` holds the JSON object ``expected``; the
    message names the file and the sorted top-level keys that differ."""
    if not path.exists():
        raise InputError(f"no {label} at {path}; run 'phoenix {command}' first")
    doc = _read_json_object(path)
    differ = sorted(key for key in expected.keys() | doc.keys()
                    if key not in expected or key not in doc or expected[key] != doc[key])
    if differ:
        raise InputError(f"{label} {path} differs from the one this config makes in "
                         f"{differ}; rerun 'phoenix {command}'")


def _required_plan(cfg: RunConfig, train: Dataset) -> PartitionPlan:
    """The plan ``cfg`` cuts from ``train``; ``InputError`` unless the run's
    ``plan.json`` holds exactly that plan, so a run never trains on a split
    its partition step did not write."""
    plan = _cut_plan(cfg, train)
    _require_same(Path(cfg.out_dir) / PLAN_FILE, plan_to_json(plan), "partition plan",
                  "partition")
    return plan


def _warmup_record(cfg: RunConfig, plan: PartitionPlan) -> dict:
    """What ``warmup`` trains from: the plan and every config value that
    ``warmup_train`` reads."""
    f = cfg.federation
    return {"plan": plan_to_json(plan), "seed": cfg.seed, "model": asdict(cfg.model),
            "diffusion": asdict(cfg.diffusion), "warmup_epochs": f.warmup_epochs,
            "optimizer": f.optimizer, "learning_rate": f.learning_rate,
            "batch_size": f.batch_size}


def _model_from_checkpoint(cfg: RunConfig, path: Path) -> DenoiserModel:
    if not path.exists():
        raise InputError(f"no checkpoint at {path}")
    scaffold = build_unet(cfg.model_config(), cfg.seed)
    return scaffold.with_params(read_params(path, scaffold.params))


def _metrics_context(cfg: RunConfig, train: Dataset, test: Dataset,
                     explicit: str | None) -> MetricsContext:
    """The test images seen through the eval classifier: the one at
    ``explicit``, else the run's saved one, else one trained and saved now."""
    default = Path(cfg.out_dir) / CLASSIFIER_FILE
    if explicit is not None:
        classifier = load_classifier(explicit, train)
    elif default.exists():
        classifier = load_classifier(default, train)
    else:
        classifier = train_eval_classifier(train, cfg.metrics.classifier_epochs, cfg.seed)
        default.parent.mkdir(parents=True, exist_ok=True)
        save_classifier(default, classifier)
    return MetricsContext.build(test.images, classifier)


def cmd_partition(cfg: RunConfig, args: argparse.Namespace) -> int:
    train, _ = load_datasets(cfg)
    plan = _cut_plan(cfg, train)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_plan(out / PLAN_FILE, plan)
    counts = [
        np.bincount(train.labels[np.asarray(part, dtype=np.int64)],
                    minlength=train.num_classes)
        for part in plan.assignments
    ]
    write_csv(out / "class_counts.csv",
              ["client"] + [f"class_{c}" for c in range(train.num_classes)],
              ([cid] + [int(c) for c in row] for cid, row in enumerate(counts)))
    sizes = [len(part) for part in plan.assignments]
    print(f"wrote {out / PLAN_FILE}: mode={plan.mode} clients={sizes}")
    if plan.mode == MODE_DATA_SHARING:
        print(f"shared pool |G|={len(plan.shared_pool)} "
              f"(beta={plan.beta_pct:g}%, alpha={plan.alpha_pct:g}%)")
    return EXIT_OK


def cmd_warmup(cfg: RunConfig, args: argparse.Namespace) -> int:
    train, _ = load_datasets(cfg)
    plan = _required_plan(cfg, train)
    if plan.mode != MODE_DATA_SHARING:
        raise InputError(
            f"warmup needs a data-sharing plan, found mode '{plan.mode}'"
        )
    fed = cfg.federation_config()
    shared = train.subset(plan.shared_pool)
    model, curve = warmup_train(shared, cfg.model_config(), fed, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_checkpoint(out / WARMUP_CHECKPOINT, model.params, set(model.personal_names))
    write_json(out / WARMUP_RECORD, _warmup_record(cfg, plan))
    write_csv(out / WARMUP_LOSS_FILE, ["epoch", "loss"],
              ([epoch, f"{loss:.6f}"] for epoch, loss in enumerate(curve, start=1)))
    print(f"wrote {out / WARMUP_CHECKPOINT} after {len(curve)} warmup epochs "
          f"on {len(shared)} shared samples")
    return EXIT_OK


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.workers is not None:
        try:
            check_workers(args.workers)
        except ValueError as exc:
            raise ConfigError(f"--workers: {exc}") from None
    train, test = load_datasets(cfg)
    plan = _required_plan(cfg, train)
    fed = cfg.federation_config()
    out = Path(cfg.out_dir)
    if plan.mode == MODE_DATA_SHARING:
        _require_same(out / WARMUP_RECORD, _warmup_record(cfg, plan), "warmup record",
                      "warmup")
        initial = _model_from_checkpoint(cfg, out / WARMUP_CHECKPOINT)
    else:
        initial = build_unet(cfg.model_config(), cfg.seed)
    metrics_ctx = _metrics_context(cfg, train, test, args.classifier)
    run_id = cfg.resolved_run_id()
    run_dir = out / "runs" / run_id
    final_model, runlog = run_federation(
        initial, plan, fed, train, cfg.seed,
        heldout=test, workers=args.workers, out_dir=run_dir,
    )
    samples = diffusion.generate(
        final_model, fed.schedule, cfg.metrics.eval_sample_count,
        derive_seed(cfg.seed, DOMAIN_SAMPLE, 0),
    )
    report = compute_report(samples, metrics_ctx)
    summary = {
        "run_id": run_id,
        "strategy": cfg.strategy_label(),
        "mode": plan.mode,
        "beta_pct": plan.beta_pct,
        "alpha_pct": plan.alpha_pct,
        "drop_policy": fed.drop_policy.label() if fed.threshold_filtering else None,
        "seed": cfg.seed,
        "server_rounds": fed.server_rounds,
        **asdict(report),
    }
    write_json(run_dir / "summary.json", summary, indent=2)
    print(f"run {run_id}: {fed.server_rounds} rounds complete")
    print(f"final metrics: fid={report.fid:.4f} is={report.is_mean:.4f}+-{report.is_std:.4f} "
          f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"tv={report.tv_distance:.4f}")
    print(f"wrote {run_dir / 'summary.json'}")
    return EXIT_OK


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = _model_from_checkpoint(cfg, Path(args.checkpoint))
    schedule = cfg.diffusion.build()
    batch = diffusion.generate(model, schedule, args.count, cfg.seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_tensor(out / "samples.phxt", batch)
    ext = image_extension(batch.shape[1])
    for i, sample in enumerate(batch):
        write_image(out / f"sample_{i:04d}.{ext}", sample)
    print(f"wrote {len(batch)} samples to {out} (samples.phxt + *.{ext})")
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    samples_path = Path(args.samples)
    if not samples_path.exists():
        raise InputError(f"no sample tensor at {samples_path}")
    samples = read_tensor(samples_path)
    train, test = load_datasets(cfg)
    if samples.ndim != 4 or samples.shape[1:] != test.images.shape[1:]:
        raise InputError(
            f"sample shape {samples.shape} does not match reference images "
            f"{test.images.shape[1:]} per sample"
        )
    metrics_ctx = _metrics_context(cfg, train, test, args.classifier)
    report = compute_report(samples, metrics_ctx)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "metrics.json", asdict(report))
    write_csv(out / "class_histogram.csv", ["class", "count"],
              sorted_histogram(report.class_histogram))
    print(report.to_json())
    return EXIT_OK


REPORT_COLUMNS = [
    "run_id", "strategy", "beta_pct", "alpha_pct", "drop_policy",
    "fid", "is_mean", "is_std", "precision", "recall", "tv_distance",
]


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = []
    for run_dir in args.run_dirs:
        summary_path = Path(run_dir) / "summary.json"
        if not summary_path.exists():
            log.warning("skipping %s: no summary.json", run_dir)
            continue
        doc = _read_json_object(summary_path)
        rows.append([doc.get(col) for col in REPORT_COLUMNS])
    rows.sort(key=lambda r: str(r[0]))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.csv"
    write_csv(report_path, REPORT_COLUMNS,
              (["" if v is None else v for v in row] for row in rows))
    print(f"wrote {report_path} ({len(rows)} runs)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default="desk",
                        help=f"preset name {preset_names()} or JSON config path")
    shared.add_argument("--seed", type=int, default=None, help="override the run seed")
    shared.add_argument("--out", default=None, help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="phoenix",
        description="Federated diffusion-model training simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", parents=[shared],
                       help="write the client partition plan")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("warmup", parents=[shared],
                       help="train the warmup model on the shared pool")
    p.set_defaults(func=cmd_warmup)

    p = sub.add_parser("train", parents=[shared], help="run the federated rounds")
    p.add_argument("--classifier", default=None,
                   help="existing eval classifier checkpoint")
    p.add_argument("--workers", type=int, default=None,
                   help="processes for the clients' training and scoring, each "
                        "keeping its own clients' state for the whole run "
                        "(default: the usable cores when BLAS is pinned to one "
                        "thread, else 1); the final report's sampling uses "
                        "that default")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", parents=[shared],
                       help="sample images from a checkpoint")
    p.add_argument("--checkpoint", required=True, help="PHXC model checkpoint")
    p.add_argument("--count", type=int, default=16, help="number of samples")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="score a sample tensor against the reference set")
    p.add_argument("--samples", required=True, help="PHXT batch of samples")
    p.add_argument("--classifier", default=None,
                   help="existing eval classifier checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", parents=[shared],
                       help="tabulate run summaries into a comparison CSV")
    p.add_argument("run_dirs", nargs="+", help="run directories with summary.json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg, args)
    except (ConfigError, InputError, FormatError, DataFormatError, ValueError,
            OSError) as exc:
        if isinstance(exc, OSError) and exc.errno in OUT_OF_RESOURCES:
            print(f"runtime failure: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FederationError, NumericError, ArithmeticError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
