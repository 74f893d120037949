"""Run one workload once in this process and write the result as JSON.

``run.py`` starts a fresh child for every measurement, with the thread
budget already in its environment:

    python3 perfbench/child.py --root . --workload desk --seed 1 --mode full \
        --trace 0 --work .perfbench/work/x --result .perfbench/work/x.json

``--mode setup`` stops at the start of round 1, so only set-up is timed.
``--trace 1`` installs the span tracer and adds the per-layer metrics.
The child checks the run's outputs and digests them; it leaves timing of
its own start to the parent, which knows when it spawned the process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import CLI, workload


class SetupComplete(BaseException):
    """Raised at the start of round 1 when only set-up is measured.

    A BaseException, so that the CLI's error handling does not turn it into
    an exit code.
    """


class Probe:
    """The hooks every run needs, traced or not.

    It marks the start of round 1 (the entry of ``run_federation``) and the
    end of the run, keeps ``run_federation``'s result for the output checks,
    and checks every batch that ``diffusion.generate`` returns. Each hook
    costs one call per federation or sampling call, so untraced timings are
    unaffected.
    """

    def __init__(self, setup_only: bool, tracer=None):
        self.setup_only = setup_only
        self.tracer = tracer
        self.round1_wall = None
        self.round1_perf = None
        self.run_s = None
        self.run_rusage = None
        self.peak_rss_mb = None
        self.result = None
        self.images_x_steps = 0
        self.sample_batches = 0
        self.sample_problems: list[str] = []
        self._patched: list[tuple] = []

    def start_round_one(self) -> None:
        self.round1_wall = time.time()
        self.round1_perf = time.perf_counter()
        self._rusage0 = resource.getrusage(resource.RUSAGE_SELF)
        if self.tracer is not None:
            self.tracer.phase = "run"
        if self.setup_only:
            raise SetupComplete()

    def finish(self) -> None:
        self.run_s = time.perf_counter() - self.round1_perf
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.peak_rss_mb = usage.ru_maxrss * 1024 / 1e6
        # where the run's wall time went, to tell contention from work
        self.run_rusage = {
            "user_s": usage.ru_utime - self._rusage0.ru_utime,
            "sys_s": usage.ru_stime - self._rusage0.ru_stime,
            "minor_faults": usage.ru_minflt - self._rusage0.ru_minflt,
            "involuntary_switches": usage.ru_nivcsw - self._rusage0.ru_nivcsw,
        }
        if self.tracer is not None:
            self.tracer.phase = "check"

    def install(self, cli, diffusion) -> None:
        probe = self
        run_federation = cli.run_federation
        generate = diffusion.generate

        def probed_run_federation(*args, **kwargs):
            probe.start_round_one()
            probe.result = run_federation(*args, **kwargs)
            return probe.result

        def probed_generate(model, schedule, count, seed):
            samples = generate(model, schedule, count, seed)
            probe.sample_batches += 1
            probe.images_x_steps += len(samples) * schedule.steps
            if not (np.isfinite(samples).all() and samples.min() >= -1.0
                    and samples.max() <= 1.0):
                probe.sample_problems.append(
                    f"batch {probe.sample_batches}: samples not finite or outside [-1, 1]")
            return samples

        for owner, attr, new in ((cli, "run_federation", probed_run_federation),
                                 (diffusion, "generate", probed_generate)):
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class CheckFailed(Exception):
    pass


PAPER_INIT_SEED = 0


def run_cli_workload(wl, seed: int, work: Path, probe: Probe):
    """``phoenix partition`` then ``phoenix train``, through ``phoenix.cli.main``."""
    from phoenix import cli

    config_path = work / "config.json"
    config_path.write_text(json.dumps(wl.config))
    out = work / "out"
    common = ["--config", str(config_path), "--seed", str(seed), "--out", str(out)]
    for command in ("partition", "train"):
        code = cli.main([command, *common])
        if code != 0:
            raise CheckFailed(f"phoenix {command} exited with code {code}")
    probe.finish()
    (run_dir,) = sorted((out / "runs").iterdir())
    summary = json.loads((run_dir / "summary.json").read_text())
    return run_dir, probe.result[0], summary


def run_federation_workload(wl, seed: int, work: Path, probe: Probe):
    """One round of the paper preset on synthetic images, via ``run_federation``."""
    from phoenix import config, datasets, federation, partition, unet

    cfg = config.config_from_dict({**wl.config, "seed": seed})
    model_cfg = cfg.model_config()
    # A fixed initial global model: across seeds its initialization alone
    # moved the round's loss by about 7%, most of final_loss's seed spread.
    model = unet.build_unet(model_cfg, PAPER_INIT_SEED)
    f = cfg.federation
    count = f.client_count * wl.images_per_client
    classes = min(10, f.client_count * cfg.partition.classes_per_client)
    rng = np.random.default_rng(seed)
    side = model_cfg.image_side
    images = rng.uniform(-1.0, 1.0, (count, model_cfg.image_channels, side, side))
    data = datasets.Dataset(images.astype(np.float32), np.arange(count) % classes, classes)
    plan = partition.partition_label_skew(data, f.client_count,
                                          cfg.partition.classes_per_client, seed)
    fed = federation.FederationConfig(
        client_count=f.client_count, server_rounds=f.server_rounds,
        local_epochs=f.local_epochs, batch_size=f.batch_size,
        learning_rate=f.learning_rate, schedule=cfg.diffusion.build(),
        warmup_epochs=f.warmup_epochs, optimizer=f.optimizer,
        personalization=f.personalization, threshold_filtering=f.threshold_filtering,
        drop_policy=f.build_policy(), eval_sample_count=f.eval_sample_count,
        eval_start_round=f.eval_start_round, min_active_clients=f.min_active_clients,
    )
    run_dir = work / "run"
    probe.start_round_one()
    final_model, _ = federation.run_federation(model, plan, fed, data, seed, out_dir=run_dir)
    probe.finish()
    return run_dir, final_model, None


SUMMARY_FIELDS = ("fid", "is_mean", "is_std", "precision", "recall", "tv_distance",
                  "n_generated")


def check_and_digest(cfg, run_dir: Path, final_model, summary, probe: Probe):
    """Check the run's invariants; digest its deterministic outputs.

    The digest covers the final checkpoint's bytes, the runlog without its
    ``wall_ms`` column, and the summary metrics.
    """
    from phoenix import formats

    f = cfg.federation
    checks: dict[str, bool] = {}
    with open(run_dir / "runlog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks["runlog_rows"] = len(rows) == f.server_rounds * f.client_count
    losses = [float(r["train_loss"]) for r in rows if r["train_loss"]]
    checks["losses_finite"] = bool(losses) and all(math.isfinite(v) for v in losses)

    ckpt = run_dir / f"round_{f.server_rounds}.phxc"
    params, personal = formats.read_checkpoint(ckpt)
    checks["checkpoint_rereads_equal"] = (
        list(params) == list(final_model.params)
        and all((params[k] == v).all() for k, v in final_model.params.items())
        and personal == set(final_model.personal_names)
    )
    checks["samples_in_range"] = not probe.sample_problems
    unit = [float(r[k]) for r in rows for k in ("precision", "recall") if r[k]]
    if summary is not None:
        checks["samples_in_range"] = checks["samples_in_range"] and probe.sample_batches > 0
        checks["fid_nonnegative"] = summary["fid"] >= 0.0
        unit += [summary["precision"], summary["recall"], summary["tv_distance"]]
    checks["unit_metrics_in_range"] = all(0.0 <= v <= 1.0 for v in unit)

    digest = hashlib.sha256(ckpt.read_bytes())
    wall = list(rows[0]).index("wall_ms") if rows else None
    with open(run_dir / "runlog.csv", newline="") as fh:
        for line in csv.reader(fh):
            digest.update(",".join(v for i, v in enumerate(line) if i != wall).encode())
            digest.update(b"\n")
    summary_metrics = {k: summary[k] for k in SUMMARY_FIELDS} if summary else {}
    digest.update(json.dumps(summary_metrics, sort_keys=True).encode())

    last = [float(r["train_loss"]) for r in rows
            if int(r["round"]) == f.server_rounds and r["train_loss"]]
    trained = [r for r in rows if r["train_loss"]]
    work = {
        "local_train_calls": sum(r["status"] != "disconnected" for r in rows),
        "evaluate_client_calls": sum(bool(r["precision"]) for r in rows),
        "adam_steps": sum(math.ceil(int(r["samples"]) / f.batch_size) * f.local_epochs
                          for r in trained) if f.optimizer == "adam" else 0,
        "samples_trained": sum(int(r["samples"]) * f.local_epochs for r in trained),
        "images_x_steps_sampled": probe.images_x_steps,
    }
    return {
        "checks": checks,
        "digest": digest.hexdigest(),
        "summary": summary_metrics,
        "final_loss": sum(last) / len(last) if last else None,
        "client_rounds": len(rows),
        "clients_faulted": sum(r["status"] == "faulted" for r in rows),
        "bytes_up": sum(int(r["bytes_up"]) for r in rows),
        "bytes_down": sum(int(r["bytes_down"]) for r in rows),
        "work": work,
    }


def environment() -> dict:
    from phoenix import cli, federation

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_default_workers": cli.build_parser().parse_args(["train"]).workers,
        "run_federation_default_workers":
            inspect.signature(federation.run_federation).parameters["workers"].default,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/phoenix")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken workload")
    parser.add_argument("--work", required=True, help="directory for the run's outputs")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--trace-out", default=None, help="where to write the spans")
    args = parser.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import phoenix
    from phoenix import cli, config, diffusion

    if Path(phoenix.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported phoenix from {phoenix.__file__}, not from {src}")

    wl = workload(args.workload, args.smoke)
    cfg = config.config_from_dict({**wl.config, "seed": args.seed})
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    probe = Probe(setup_only=args.mode == "setup", tracer=tracer)
    probe.install(cli, diffusion)
    result: dict = {"ok": False, "error": None, "env": environment()}
    try:
        runner = run_cli_workload if wl.entry == CLI else run_federation_workload
        try:
            run_dir, final_model, summary = runner(wl, args.seed, work, probe)
        except SetupComplete:
            result.update(ok=True, round1_wall=probe.round1_wall)
            return 0
        result.update(round1_wall=probe.round1_wall, run_s=probe.run_s,
                      run_rusage=probe.run_rusage, peak_rss_mb=probe.peak_rss_mb)
        result.update(check_and_digest(cfg, run_dir, final_model, summary, probe))
        result["ok"] = all(result["checks"].values())
        if not result["ok"]:
            failed = [k for k, v in result["checks"].items() if not v]
            result["error"] = f"output checks failed: {failed}"
        if tracer is not None:
            per_layer = tracer.metrics()
            local_calls = per_layer["federation.local_train.calls"]
            per_layer.update({
                "federation.bytes_up": result["bytes_up"],
                "federation.bytes_down": result["bytes_down"],
                "federation.useful_update_ratio":
                    tracer.updates_aggregated / local_calls if local_calls else 0.0,
                "federation.clients_faulted": result["clients_faulted"],
                "fid": result["summary"].get("fid", 0.0),
                "unattributed_s": probe.run_s - tracer.covered(),
                "trace.run_s": probe.run_s,
            })
            result["per_layer"] = per_layer
    except CheckFailed as exc:
        result["error"] = str(exc)
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
            if args.trace_out:
                tracer.write(Path(args.trace_out))
        Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
