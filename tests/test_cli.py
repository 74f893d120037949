import errno
import json
import multiprocessing
import os
import signal
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from phoenix import diffusion, federation, parallel
from phoenix.classifier import ClassifierConfig, EvalClassifier, save_classifier
from phoenix.cli import build_parser, main
from phoenix.config import FederationSpec, config_from_dict, load_config, load_datasets
from phoenix.federation import FederationConfig
from phoenix.formats import read_checkpoint, read_tensor, write_tensor
from phoenix.metrics import MetricsReport
from phoenix.schedule import cosine_schedule, linear_schedule
from phoenix.unet import build_unet


def micro_config(tmp_path, **extra):
    doc = {
        "preset": "desk",
        "dataset": {"per_class": 12, "test_per_class": 12},
        "diffusion": {"schedule": "cosine", "steps": 6},
        "federation": {"server_rounds": 1, "local_epochs": 1, "batch_size": 8,
                       "warmup_epochs": 1, "eval_sample_count": 8,
                       "eval_start_round": 1},
        "metrics": {"eval_sample_count": 16, "classifier_epochs": 1},
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
    }
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfigHandling:
    def test_unknown_preset_exits_2(self, capsys):
        assert main(["partition", "--config", "nonesuch"]) == 2
        assert "config" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["partition", "--config", str(bad)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for doc in ({"preset": "desk", "bogus": 1},
                    # threshold filtering has one drop rule, so the key that chose it is gone
                    {"preset": "desk", "federation": {"drop_policy": "threshold"}}):
            path.write_text(json.dumps(doc))
            assert main(["partition", "--config", str(path)]) == 2, doc

    def test_invalid_config_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "preset": "desk",
            "partition": {"mode": "bogus"},
            "out_dir": str(out),
        }))
        assert main(["partition", "--config", str(path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("override, named", [
        pytest.param({"metrics": {"eval_sample_count": 3}}, "metrics.eval_sample_count=3",
                     id="metrics-samples-below-k"),
        pytest.param({"federation": {"optimizer": "rmsprop"}}, "rmsprop",
                     id="unknown-optimizer"),
        pytest.param({"dataset": {"classes": 2, "test_per_class": 1}},
                     "dataset.classes*test_per_class=2", id="reference-below-k"),
        pytest.param({"model": {"image_channels": 3}}, "toy images",
                     id="toy-channels-not-model"),
        pytest.param({"model": "desk"}, "section 'model'", id="model-by-name"),
        pytest.param({"model": {"norm_groups": 4}}, "norm_groups", id="model-norm-groups"),
        pytest.param({"diffusion": {"beta_end": 0.02}}, "beta_end", id="diffusion-beta-end"),
        pytest.param({"dataset": {"side": 8}}, "['side']", id="dataset-side"),
        pytest.param({"model": {"depth": "3"}}, "model.depth", id="depth-string"),
        pytest.param({"dataset": {"per_class": "5"}}, "dataset.per_class",
                     id="per-class-string"),
        pytest.param({"federation": {"personalization": "yes"}},
                     "federation.personalization", id="personalization-string"),
        pytest.param({"federation": {"learning_rate": "0.1"}}, "federation.learning_rate",
                     id="learning-rate-string"),
        pytest.param({"model": {"depth": True}}, "model.depth", id="depth-bool"),
        pytest.param({"seed": "5"}, "seed must be int", id="seed-string"),
        pytest.param({"federation": {"drop_immediate": True}}, "drop_immediate",
                     id="drop-immediate"),
        pytest.param({"preset": ["desk"]}, "unknown preset", id="preset-not-string"),
        pytest.param({"federation": {"learning_rate": -1}}, "learning_rate must be",
                     id="learning-rate-negative"),
        pytest.param({"federation": {"learning_rate": 0}}, "learning_rate must be",
                     id="learning-rate-zero"),
        pytest.param({"federation": {"learning_rate": float("nan")}}, "learning_rate must be",
                     id="learning-rate-nan"),
        pytest.param({"federation": {"warmup_epochs": -3}}, "warmup_epochs",
                     id="warmup-epochs-negative"),
        pytest.param({"metrics": {"classifier_epochs": -2}}, "classifier_epochs",
                     id="classifier-epochs-negative"),
        pytest.param({"run_id": "../../escaped"}, "run_id", id="run-id-parent"),
        pytest.param({"run_id": "/escaped"}, "run_id", id="run-id-absolute"),
        # the feature space, k and the IS split count are fixed by the metrics
        pytest.param({"metrics": {"feature_space": "pixels"}}, "feature_space",
                     id="removed-feature-space"),
        pytest.param({"metrics": {"knn_k": 3}}, "knn_k", id="removed-knn-k"),
        pytest.param({"metrics": {"is_splits": 10}}, "is_splits", id="removed-is-splits"),
        # json reads Infinity and NaN; 1e308% of the client pool overflows
        pytest.param({"partition": {"mode": "data_sharing", "beta_pct": float("inf")}},
                     "partition.beta_pct", id="beta-infinite"),
        pytest.param({"partition": {"mode": "data_sharing", "beta_pct": 1e308}},
                     "partition.beta_pct", id="beta-overflowing"),
        pytest.param({"partition": {"mode": "data_sharing", "beta_pct": float("nan")}},
                     "partition.beta_pct", id="beta-nan"),
        pytest.param({"partition": {"mode": "data_sharing", "alpha_pct": float("nan")}},
                     "partition.alpha_pct", id="alpha-nan"),
        # 0 would leave every client only the shared images
        pytest.param({"partition": {"mode": "data_sharing", "classes_per_client": 0}},
                     "partition.classes_per_client", id="classes-per-client-zero"),
        pytest.param({"partition": {"mode": "data_sharing", "classes_per_client": -1}},
                     "partition.classes_per_client", id="classes-per-client-negative"),
    ])
    def test_unrunnable_config_refused_before_writing(self, tmp_path, capsys, override,
                                                      named):
        # train would otherwise run its rounds before refusing these; each
        # case is refused by its own rule, which the message names
        path = micro_config(tmp_path, **override)
        assert main(["partition", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("federation, rule", [
        ({"threshold_filtering": True, "eval_start_round": 9}, "eval_start_round 9 outside"),
        ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'"),
        ({"server_rounds": 0}, "server_rounds and local_epochs must be at least 1"),
        ({"threshold_filtering": True, "drop_threshold": 1.0, "min_active_clients": 0},
         "needs min_active_clients >= 1"),
        ({"drop_threshold": 1.5}, "threshold must lie in"),
        ({"drop_threshold": -0.1}, "threshold must lie in"),
        ({"drop_threshold": float("nan")}, "threshold must lie in"),
    ], ids=["eval-start-after-last-round", "unknown-optimizer", "no-rounds",
            "no-participation-floor", "threshold-above-1", "threshold-negative",
            "threshold-nan"])
    def test_config_document_refuses_federation_rules(self, federation, rule):
        with pytest.raises(ValueError, match=rule):
            config_from_dict({"preset": "desk", "federation": federation})

    def test_federation_config_carries_every_federation_field(self):
        values = {"client_count": 3, "server_rounds": 7, "local_epochs": 2,
                  "batch_size": 4, "learning_rate": 5e-3, "warmup_epochs": 1,
                  "optimizer": "sgd", "personalization": True,
                  "threshold_filtering": True, "drop_threshold": 0.4,
                  "eval_sample_count": 32, "eval_start_round": 6,
                  "min_active_clients": 3}
        assert set(values) == {f.name for f in fields(FederationSpec)}
        assert all(getattr(FederationSpec(), key) != v for key, v in values.items())
        assert {f.name for f in fields(FederationConfig)} == (
            set(values) - {"drop_threshold"} | {"drop_policy", "schedule"})
        fed = config_from_dict({"preset": "desk", "federation": values,
                                "diffusion": {"schedule": "linear", "steps": 20}}
                               ).federation_config()
        for key, value in values.items():
            got = fed.drop_policy.threshold if key == "drop_threshold" else getattr(fed, key)
            assert got == value, key
        np.testing.assert_array_equal(fed.schedule.beta, linear_schedule(20).beta)

    def test_document_without_preset_is_desk(self):
        assert config_from_dict({}) == load_config("desk")

    def test_paper_preset_keeps_paper_scale(self):
        cfg = load_config("paper")
        assert (cfg.federation.client_count, cfg.diffusion.steps, cfg.dataset.kind,
                cfg.metrics.eval_sample_count, cfg.metrics.classifier_epochs) == (
                    10, 1000, "cifar10", 10000, 10)

    def test_int_stands_for_a_float(self):
        cfg = config_from_dict({"federation": {"learning_rate": 1},
                                "partition": {"beta_pct": 50}})
        assert (cfg.federation.learning_rate, cfg.partition.beta_pct) == (1, 50)

    def test_paper_model_overridden_field_by_field(self):
        paper = load_config("paper").model_config()
        cfg = config_from_dict({"preset": "paper", "model": {"depth": 3}})
        assert paper.depth == 4
        assert cfg.model_config() == replace(paper, depth=3)

    def test_toy_images_take_the_model_side(self, tmp_path):
        path = micro_config(tmp_path, model={"image_side": 16})
        assert main(["partition", "--config", str(path)]) == 0
        train, test = load_datasets(load_config(path))
        assert train.images.shape[1:] == test.images.shape[1:] == (1, 16, 16)

    def test_federation_sample_count_is_checked_by_nothing(self, tmp_path):
        # the filter scores a held-out loss and samples nothing, so no count
        # is too small for it, with filtering off or on
        for filtering in (False, True):
            path = micro_config(tmp_path, federation={"eval_sample_count": 3,
                                                      "threshold_filtering": filtering})
            assert main(["partition", "--config", str(path)]) == 0

    def test_missing_cifar_directory_exits_2(self, tmp_path):
        path = micro_config(tmp_path, dataset={"kind": "cifar10",
                                               "path": str(tmp_path / "nope")})
        assert main(["partition", "--config", str(path)]) == 2

    def test_env_overrides_seed_and_out(self, tmp_path, monkeypatch):
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("PHOENIX_SEED", "123")
        monkeypatch.setenv("PHOENIX_OUT", str(env_out))
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        plan = json.loads((env_out / "plan.json").read_text())
        assert plan["seed"] == 123

    def test_cli_flags_beat_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHOENIX_SEED", "123")
        path = micro_config(tmp_path)
        out = tmp_path / "flag_out"
        assert main(["partition", "--config", str(path), "--seed", "9",
                     "--out", str(out)]) == 0
        assert json.loads((out / "plan.json").read_text())["seed"] == 9


class TestPartitionCommand:
    def test_writes_plan_and_counts(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        out = tmp_path / "out"
        plan = json.loads((out / "plan.json").read_text())
        assert plan["mode"] == "label_skew"
        assert len(plan["clients"]) == 4
        lines = (out / "class_counts.csv").read_text().splitlines()
        assert lines[0] == "client,class_0,class_1,class_2,class_3"
        assert len(lines) == 5

    def test_repeat_invocation_byte_identical(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "plan.json").read_bytes()
        assert main(["partition", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "plan.json").read_bytes() == first

    def test_sharing_plan_sizes(self, tmp_path):
        path = micro_config(tmp_path, dataset={"per_class": 15}, partition={
            "mode": "data_sharing", "classes_per_client": 2,
            "beta_pct": 25.0, "alpha_pct": 100.0,
        })
        assert main(["partition", "--config", str(path)]) == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        # 60 samples -> client pool 48, server pool 12 (stratified per class)
        assert len(plan["shared_pool"]) == round(0.25 * 48)
        assert all(len(c) == len(plan["client_part"][i]) + len(plan["shared_pool"])
                   for i, c in enumerate(plan["clients"]))

    def test_cifar_scale_sharing_sizes(self, tmp_path, cifar_dir):
        # the full-scale split: 40k/10k pools, 10k shared, 14k per client
        path = micro_config(
            tmp_path,
            dataset={"kind": "cifar10", "path": str(cifar_dir)},
            partition={"mode": "data_sharing", "classes_per_client": 2,
                       "beta_pct": 25.0, "alpha_pct": 100.0},
            federation={"client_count": 10},
        )
        assert main(["partition", "--config", str(path)]) == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert len(plan["shared_pool"]) == 10000
        assert all(len(part) == 4000 for part in plan["client_part"])
        assert all(len(c) == 14000 for c in plan["clients"])


class TestWarmupCommand:
    def test_requires_plan(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["warmup", "--config", str(path)]) == 2

    def test_requires_sharing_mode(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["warmup", "--config", str(path)]) == 2

    def test_writes_checkpoint_and_curve(self, tmp_path):
        path = micro_config(tmp_path, dataset={"per_class": 15},
                            partition={"mode": "data_sharing"},
                            federation={"warmup_epochs": 3})
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["warmup", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "round_0.phxc").exists()
        assert json.loads((out / "warmup.json").read_text())["warmup_epochs"] == 3
        lines = (out / "warmup_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4  # header + one row per warmup epoch

    def test_zero_epochs_equals_fresh_initialization(self, tmp_path):
        path = micro_config(tmp_path, dataset={"per_class": 15},
                            partition={"mode": "data_sharing"},
                            federation={"warmup_epochs": 0})
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["warmup", "--config", str(path)]) == 0
        params, personal = read_checkpoint(tmp_path / "out" / "round_0.phxc")
        cfg = load_config(str(path))
        fresh = build_unet(cfg.model_config(), cfg.seed)
        assert set(personal) == set(fresh.personal_names)
        for name in fresh.params:
            np.testing.assert_array_equal(params[name], fresh.params[name])


class TestTrainCommand:
    def test_requires_plan(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 2

    def test_full_micro_run(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        run_dir = tmp_path / "out" / "runs" / "label_skew-seed5"
        runlog = (run_dir / "runlog.csv").read_text().splitlines()
        assert len(runlog) == 1 + 4  # header + one row per (round, client)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["run_id"] == "label_skew-seed5"
        # every field of the final report, the class histogram included
        report = {f.name for f in fields(MetricsReport)}
        assert {"class_histogram", "n_reference"} <= report <= summary.keys()
        assert sum(summary["class_histogram"]) == summary["n_generated"] == 16
        assert (run_dir / "round_1.phxc").exists()

    @pytest.mark.parametrize("plan_doc, train_doc", [
        ({"partition": {"mode": "data_sharing"}}, {"partition": {"mode": "label_skew"}}),
        ({}, {"federation": {"client_count": 3}}),
        ({"partition": {"classes_per_client": 1}}, {"partition": {"classes_per_client": 3}}),
    ], ids=["mode", "client-count", "classes-per-client"])
    def test_plan_of_another_config_refused_before_any_work(self, tmp_path, plan_doc,
                                                            train_doc):
        base = {"dataset": {"per_class": 15}}
        plan_config = str(micro_config(tmp_path, **base, **plan_doc))
        assert main(["partition", "--config", plan_config]) == 0
        if plan_doc.get("partition", {}).get("mode") == "data_sharing":
            # the sharing plan's warmup model is on disk too
            assert main(["warmup", "--config", plan_config]) == 0
        assert main(["train", "--config", str(micro_config(tmp_path, **base,
                                                           **train_doc))]) == 2
        assert not (tmp_path / "out" / "eval_classifier.phxc").exists()
        assert not (tmp_path / "out" / "runs").exists()

    @pytest.mark.parametrize("partition, flags, field", [
        ({}, ["--seed", "7"], "seed"),
        ({"beta_pct": 10.0}, [], "beta_pct"),
        ({"alpha_pct": 50.0}, [], "alpha_pct"),
        ({"classes_per_client": 1}, [], "classes_per_client"),
    ], ids=["seed", "beta", "alpha", "classes-per-client"])
    @pytest.mark.parametrize("command", ["warmup", "train"])
    def test_plan_cut_for_another_run_refused_before_any_work(self, tmp_path, capsys,
                                                              command, partition, flags,
                                                              field):
        sharing = {"mode": "data_sharing", "beta_pct": 25.0, "alpha_pct": 100.0}
        plan_config = str(micro_config(tmp_path, dataset={"per_class": 15},
                                       partition=sharing))
        assert main(["partition", "--config", plan_config]) == 0
        if command == "train":  # the plan's own warmup model is on disk too
            assert main(["warmup", "--config", plan_config]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        run_config = micro_config(tmp_path, dataset={"per_class": 15},
                                  partition={**sharing, **partition})
        assert main([command, "--config", str(run_config), *flags]) == 2
        err = capsys.readouterr().err
        assert field in err and "rerun 'phoenix partition'" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("plan, message", [
        ({"clients": 5}, "clients"),
        ({"clients": [[0, 1], [2], [3], [99999]]}, "clients"),
        ({"clients": [[0, 1], [2], [3], [4]]}, "classes_per_client"),
        ('{"mode": ', "is not JSON"),
        ("[1, 2]", "must hold a JSON object"),
    ], ids=["not-a-list", "index-out-of-range", "no-class-bound", "not-json",
            "not-an-object"])
    @pytest.mark.parametrize("command", ["train", "warmup"])
    def test_malformed_plan_refused_before_any_work(self, tmp_path, capsys, command,
                                                    plan, message):
        # the warmup cases need a data-sharing config the dataset can cut
        mode = "data_sharing" if command == "warmup" else "label_skew"
        path = micro_config(tmp_path, dataset={"per_class": 15}, partition={"mode": mode})
        out = tmp_path / "out"
        out.mkdir()
        (out / "plan.json").write_text(plan if isinstance(plan, str) else json.dumps(
            {"mode": mode, "client_part": [], "shared_pool": [0], "seed": 5, **plan}))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and str(out / "plan.json") in err
        assert sorted(p.name for p in out.iterdir()) == ["plan.json"]

    @pytest.mark.parametrize("move_index, per_class", [(True, 15), (False, 20)],
                             ids=["moved-index", "other-dataset-size"])
    @pytest.mark.parametrize("command", ["warmup", "train"])
    def test_plan_of_other_samples_refused_before_any_work(self, tmp_path, capsys, command,
                                                           move_index, per_class):
        # every key the old field checks compared still matches: only the
        # assignments, or the dataset they index, differ
        sharing = {"mode": "data_sharing", "beta_pct": 25.0, "alpha_pct": 100.0}
        plan_config = str(micro_config(tmp_path, dataset={"per_class": 15},
                                       partition=sharing))
        assert main(["partition", "--config", plan_config]) == 0
        assert main(["warmup", "--config", plan_config]) == 0
        out = tmp_path / "out"
        if move_index:
            doc = json.loads((out / "plan.json").read_text())
            doc["clients"][1] = sorted(doc["clients"][1] + [doc["clients"][0].pop()])
            (out / "plan.json").write_text(json.dumps(doc))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        run_config = micro_config(tmp_path, dataset={"per_class": per_class},
                                  partition=sharing)
        assert main([command, "--config", str(run_config)]) == 2
        err = capsys.readouterr().err
        assert "'clients'" in err and str(out / "plan.json") in err
        assert "rerun 'phoenix partition'" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("pinned", [False, True], ids=["blas-unset", "blas-pinned"])
    def test_default_workers_follow_the_blas_pin(self, tmp_path, monkeypatch, pinned):
        # forked workers inherit the parent's BLAS threads, so only a pinned
        # BLAS lets the default train clients outside this process
        for name in parallel.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        if pinned:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        trainer_pids = tmp_path / "trainer_pids"  # a worker's memory never comes back
        original = federation.local_train

        def train(*args):
            with open(trainer_pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args)

        monkeypatch.setattr(federation, "local_train", train)
        path = micro_config(tmp_path)
        assert build_parser().parse_args(["train"]).workers is None
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        pids = [int(line) for line in trainer_pids.read_text().split()]
        assert len(pids) == 4
        assert {pid != os.getpid() for pid in pids} == {pinned and parallel.usable_cores() > 1}

    def test_commands_run_without_affinity_support(self, tmp_path, monkeypatch):
        # platforms without os.sched_getaffinity count every core as usable
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0

    def test_workers_refused_where_processes_cannot_fork(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.setattr(parallel.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert main(["train", "--config", str(path), "--workers", "2"]) == 2
        assert "fork" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written

    @pytest.mark.parametrize("command", [
        ["partition"], ["warmup"], ["generate", "--checkpoint", "c.phxc"],
        ["evaluate", "--samples", "s.phxt"], ["report", "run"],
    ], ids=lambda command: command[0])
    def test_workers_is_a_train_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_refused_before_any_work(self, tmp_path, capsys,
                                                            workers):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert main(["train", "--config", str(path), "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == written

    def test_worker_that_dies_exits_3(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def die(client, *args):
            if os.getpid() != parent:
                os._exit(1)
            return original(client, *args)

        original = federation.local_train
        monkeypatch.setattr(federation, "local_train", die)
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path), "--workers", "2"]) == 3
        assert "runtime failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_fork_without_a_process_to_spare_exits_3(self, tmp_path, capsys,
                                                      second_start_fails):
        # the first worker has forked when the second cannot
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--workers", "2"]) == 3
        assert f"runtime failure: [Errno {errno.EAGAIN}]" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("repartition, changed, differ", [
        (False, {"federation": {"warmup_epochs": 3}}, "['warmup_epochs']"),
        (True, {"partition": {"beta_pct": 10.0}}, "['plan']"),
    ], ids=["warmup-epochs", "repartitioned-beta"])
    def test_warmup_of_another_config_refused_before_any_work(self, tmp_path, capsys,
                                                              repartition, changed, differ):
        sharing = {"mode": "data_sharing", "beta_pct": 25.0, "alpha_pct": 100.0}
        warmup_config = str(micro_config(tmp_path, dataset={"per_class": 15},
                                         partition=sharing))
        assert main(["partition", "--config", warmup_config]) == 0
        assert main(["warmup", "--config", warmup_config]) == 0
        run_config = str(micro_config(tmp_path, dataset={"per_class": 15},
                                      partition={**sharing, **changed.get("partition", {})},
                                      federation=changed.get("federation", {})))
        if repartition:  # plan.json matches the run; the warmup model does not
            assert main(["partition", "--config", run_config]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", run_config]) == 2
        err = capsys.readouterr().err
        assert str(out / "warmup.json") in err and differ in err
        assert "rerun 'phoenix warmup'" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_sharing_requires_warmup_checkpoint(self, tmp_path):
        path = micro_config(tmp_path, dataset={"per_class": 15},
                            partition={"mode": "data_sharing"})
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 2


class TestGenerateCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        path = micro_config(tmp_path)
        assert main(["partition", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        ckpt = tmp_path / "out" / "runs" / "label_skew-seed5" / "round_1.phxc"
        return path, ckpt

    def test_writes_batch_and_images(self, trained, tmp_path):
        path, ckpt = trained
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(ckpt), "--count", "10"]) == 0
        batch = read_tensor(gen / "samples.phxt")
        assert batch.shape == (10, 1, 8, 8)
        assert len(list(gen.glob("sample_*.pgm"))) == 10

    def test_same_seed_identical_files(self, trained, tmp_path):
        path, ckpt = trained
        a, b = tmp_path / "gen_a", tmp_path / "gen_b"
        for out in (a, b):
            assert main(["generate", "--config", str(path), "--out", str(out),
                         "--checkpoint", str(ckpt), "--count", "3"]) == 0
        assert (a / "samples.phxt").read_bytes() == (b / "samples.phxt").read_bytes()
        assert (a / "sample_0000.pgm").read_bytes() == (b / "sample_0000.pgm").read_bytes()

    def test_checkpoint_round_trip_matches_in_memory_generation(self, trained, tmp_path):
        path, ckpt = trained
        gen = tmp_path / "gen_rt"
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(ckpt), "--count", "4", "--seed", "5"]) == 0
        cfg = load_config(str(path))
        params, _ = read_checkpoint(ckpt)
        model = build_unet(cfg.model_config(), cfg.seed).with_params(params)
        expected = diffusion.generate(model, cosine_schedule(6), 4, seed=5)
        np.testing.assert_array_equal(read_tensor(gen / "samples.phxt"), expected)

    def test_killed_sampling_process_exits_3(self, trained, tmp_path, monkeypatch, capsys,
                                             two_workers):
        path, ckpt = trained
        monkeypatch.setattr(diffusion, "SAMPLE_BATCH", 2)  # 4 samples make two shares
        original, home = diffusion.sample_chain, os.getpid()

        def chain(*args):
            if os.getpid() != home:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(diffusion, "sample_chain", chain)
        capsys.readouterr()
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(ckpt), "--count", "4"]) == 3
        assert "runtime failure: sampling" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not gen.exists()

    def test_fork_without_a_process_to_spare_exits_3(self, trained, tmp_path, monkeypatch,
                                                      capsys, second_start_fails):
        # six samples in batches of two make three shares, so the second of
        # the two forks fails; a checkpoint that cannot be read, missing or a
        # directory, stays an input error
        path, ckpt = trained
        monkeypatch.setattr(parallel, "default_workers", lambda: 3)
        monkeypatch.setattr(diffusion, "SAMPLE_BATCH", 2)
        capsys.readouterr()
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(ckpt), "--count", "6"]) == 3
        assert f"runtime failure: [Errno {errno.EAGAIN}]" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not gen.exists()
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(tmp_path / "missing.phxc")]) == 2
        assert capsys.readouterr().err.startswith("error: no checkpoint")
        assert main(["generate", "--config", str(path), "--out", str(gen),
                     "--checkpoint", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: [Errno {errno.EISDIR}]")

    def test_corrupt_checkpoint_exits_2(self, trained, tmp_path, capsys):
        path, ckpt = trained
        bad = tmp_path / "bad.phxc"
        bad.write_bytes(ckpt.read_bytes()[:40])
        capsys.readouterr()
        assert main(["generate", "--config", str(path), "--out",
                     str(tmp_path / "g"), "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err.count(str(bad)) == 1


class TestEvaluateCommand:
    def test_reference_subset_scores_perfect(self, tmp_path):
        path = micro_config(tmp_path)
        cfg = load_config(str(path))
        from phoenix.config import load_datasets
        from phoenix.formats import write_tensor
        _, test = load_datasets(cfg)
        samples = tmp_path / "subset.phxt"
        write_tensor(samples, test.images)
        assert main(["evaluate", "--config", str(path), "--samples",
                     str(samples)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["precision"] == 1.0
        assert doc["recall"] == 1.0
        assert doc["tv_distance"] == 0.0
        hist = (tmp_path / "out" / "class_histogram.csv").read_text().splitlines()
        assert hist[0] == "class,count"
        counts = [int(line.split(",")[1]) for line in hist[1:]]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == len(test.images)

    def test_dimension_mismatch_exits_2(self, tmp_path):
        path = micro_config(tmp_path)
        from phoenix.formats import write_tensor
        samples = tmp_path / "wrong.phxt"
        write_tensor(samples, np.zeros((4, 1, 16, 16), np.float32))
        assert main(["evaluate", "--config", str(path), "--samples",
                     str(samples)]) == 2

    @pytest.mark.parametrize("dims", [(2**63 + 1,), (2**32, 2**32)],
                             ids=["count-past-int64", "product-wraps-int64"])
    def test_tensor_dims_beyond_the_payload_exit_2(self, tmp_path, capsys, dims):
        path = micro_config(tmp_path)
        samples = tmp_path / "s.phxt"
        samples.write_bytes(b"PHXT" + struct.pack(f"<HBB{len(dims)}Q", 1, 0, len(dims), *dims)
                            + bytes(16))
        assert main(["evaluate", "--config", str(path), "--samples", str(samples)]) == 2
        err = capsys.readouterr().err
        assert "truncated" in err and err.count(str(samples)) == 1

    def test_missing_classifier_path_exits_2(self, tmp_path):
        path = micro_config(tmp_path)
        from phoenix.formats import write_tensor
        samples = tmp_path / "s.phxt"
        write_tensor(samples, np.zeros((4, 1, 8, 8), np.float32))
        assert main(["evaluate", "--config", str(path), "--samples", str(samples),
                     "--classifier", str(tmp_path / "missing.phxc")]) == 2

    @pytest.mark.parametrize("broken", ["missing-norm1.g", "three-class-head"])
    def test_classifier_of_another_architecture_exits_2(self, tmp_path, capsys, broken):
        path = micro_config(tmp_path)
        train, test = load_datasets(load_config(str(path)))
        samples = tmp_path / "s.phxt"
        write_tensor(samples, test.images[:8])
        if broken == "missing-norm1.g":
            clf = EvalClassifier.initialize(ClassifierConfig.for_dataset(train), seed=0)
            del clf.params["norm1.g"]
            named = "norm1.g"
        else:
            clf = EvalClassifier.initialize(ClassifierConfig(1, 8, 3), seed=0)
            named = "head.w"
        ckpt = tmp_path / "clf.phxc"
        save_classifier(ckpt, clf)
        assert main(["evaluate", "--config", str(path), "--samples", str(samples),
                     "--classifier", str(ckpt)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_matches_direct_library_call(self, tmp_path):
        path = micro_config(tmp_path)
        cfg = load_config(str(path))
        from phoenix.classifier import train_eval_classifier
        from phoenix.config import load_datasets
        from phoenix.formats import write_tensor
        from phoenix.metrics import MetricsContext, compute_report
        train, test = load_datasets(cfg)
        rng = np.random.default_rng(3)
        fake = np.clip(rng.standard_normal((16, 1, 8, 8)), -1, 1).astype(np.float32)
        samples = tmp_path / "fake.phxt"
        write_tensor(samples, fake)
        assert main(["evaluate", "--config", str(path), "--samples",
                     str(samples)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())

        clf = train_eval_classifier(train, cfg.metrics.classifier_epochs, cfg.seed)
        # the CLI persists its tensor first; score the persisted bytes
        ctx = MetricsContext.build(test.images, clf)
        report = compute_report(read_tensor(samples), ctx)
        assert doc["fid"] == pytest.approx(report.fid, rel=1e-12)
        assert doc["precision"] == report.precision
        assert doc["recall"] == report.recall
        assert doc["tv_distance"] == pytest.approx(report.tv_distance, rel=1e-12)


class TestReportCommand:
    def make_summary(self, tmp_path, run_id, **metrics):
        run_dir = tmp_path / run_id
        run_dir.mkdir(parents=True)
        doc = {"run_id": run_id, "strategy": "label_skew", "beta_pct": None,
               "alpha_pct": None, "drop_policy": None, "fid": 1.0,
               "is_mean": 2.0, "is_std": 0.1, "precision": 0.5, "recall": 0.6,
               "tv_distance": 0.2}
        doc.update(metrics)
        (run_dir / "summary.json").write_text(json.dumps(doc))
        return run_dir

    def test_single_run_single_row(self, tmp_path):
        run = self.make_summary(tmp_path, "run_a")
        out = tmp_path / "out"
        assert main(["report", "--config", "desk", "--out", str(out),
                     str(run)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("run_id,strategy,beta_pct,alpha_pct,drop_policy,fid")

    def test_rows_sorted_by_run_id(self, tmp_path):
        runs = [self.make_summary(tmp_path, name) for name in ("zz", "aa", "mm")]
        out = tmp_path / "out"
        assert main(["report", "--config", "desk", "--out", str(out),
                     *[str(r) for r in runs]]) == 0
        ids = [line.split(",")[0]
               for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert ids == ["aa", "mm", "zz"]

    def test_missing_summary_skipped_with_exit_zero(self, tmp_path):
        present = self.make_summary(tmp_path, "ok")
        absent = tmp_path / "ghost"
        absent.mkdir()
        out = tmp_path / "out"
        assert main(["report", "--config", "desk", "--out", str(out),
                     str(absent), str(present)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("ok,")

    def test_truncated_summary_named_and_exits_2(self, tmp_path, capsys):
        run = self.make_summary(tmp_path, "run_a")
        text = (run / "summary.json").read_text()
        (run / "summary.json").write_text(text[:len(text) // 2])
        out = tmp_path / "out"
        assert main(["report", "--config", "desk", "--out", str(out), str(run)]) == 2
        assert str(run / "summary.json") in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_non_object_summary_exits_2(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "summary.json").write_text("[1, 2]")
        out = tmp_path / "out"
        assert main(["report", "--config", "desk", "--out", str(out), str(run)]) == 2
        assert not (out / "report.csv").exists()
