"""The benchmark's workloads: run configs plus the reason each exists.

Every workload is one federated run, sized so that the whole benchmark
(22 runs per workload) fits its time budget on a 2-core machine:

- ``desk``: ``phoenix partition`` then ``phoenix train`` with the shipped
  desk preset, cut from 5 server rounds to 2. Small-batch (8) training
  with Adam and per-sample noise keying, then the 256-sample final report.
- ``desk-personal-filter``: the desk preset with personalization and
  threshold filtering on, cut to 1 round in which every client is
  evaluated, and a final report of 128 samples instead of 256 (desk
  already measures the 256-sample report). Forward-only sampling at batch
  128 dominates, plus feature extraction, k-NN precision/recall, the
  filter step, personal-parameter merging and personal checkpoints.
- ``paper-round``: one server round of the paper model preset (20.9M
  parameters, 3x32x32) over 10 clients with 6 synthetic images each at
  batch 2 (three local steps), called through ``run_federation``.
  Large-channel convolutions, Adam and fedavg over 84 MB tables, 84 MB
  checkpoint I/O and peak memory. CIFAR-10 is not shipped, so the images
  are generated from the seed; the initial global model is the same for
  every seed.

``eval_start_round`` is set explicitly on every workload because
``FederationConfig.validate`` rejects ``eval_start_round > server_rounds``
even when filtering is off.

``smoke=True`` shrinks each workload to a few seconds for the harness test;
it keeps the code paths and changes only sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

NAMES = ("desk", "desk-personal-filter", "paper-round")

CLI = "cli"
FEDERATION = "federation"


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                  # CLI: phoenix.cli.main; FEDERATION: run_federation
    config: dict                # a RunConfig document: preset plus overrides
    images_per_client: int = 0  # FEDERATION only: synthetic images per client


_DESK_SMOKE = {
    "dataset": {"per_class": 8, "test_per_class": 8},
    "diffusion": {"steps": 3},
    "federation": {"local_epochs": 1, "eval_sample_count": 8},
    "metrics": {"eval_sample_count": 16, "classifier_epochs": 1},
}

_PAPER_SMOKE = {
    "model": {"image_channels": 3, "image_side": 8, "base_channels": 8, "depth": 2,
              "blocks_per_stage": 1, "time_embed_dim": 16},
    "federation": {"client_count": 3},
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def workload(name: str, smoke: bool = False) -> Workload:
    if name == "desk":
        config = {"preset": "desk",
                  "federation": {"server_rounds": 2, "eval_start_round": 1}}
        return Workload(name, CLI, _merge(config, _DESK_SMOKE) if smoke else config)
    if name == "desk-personal-filter":
        config = {"preset": "desk",
                  "federation": {"server_rounds": 1, "eval_start_round": 1,
                                 "personalization": True, "threshold_filtering": True},
                  "metrics": {"eval_sample_count": 128}}
        return Workload(name, CLI, _merge(config, _DESK_SMOKE) if smoke else config)
    if name == "paper-round":
        config = {"preset": "paper",
                  "federation": {"server_rounds": 1, "eval_start_round": 1,
                                 "local_epochs": 1, "batch_size": 2}}
        return Workload(name, FEDERATION, _merge(config, _PAPER_SMOKE) if smoke else config,
                        images_per_client=6)
    raise ValueError(f"unknown workload '{name}' (known: {', '.join(NAMES)})")
