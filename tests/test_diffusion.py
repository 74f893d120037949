import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix import diffusion, parallel
from phoenix.schedule import linear_schedule
from phoenix.unet import DenoiserConfig, build_unet, predict_noise

from oracles import q_sample_step

TINY = DenoiserConfig(base_channels=4, time_embed_dim=8)


@pytest.fixture(scope="module")
def schedule():
    return linear_schedule(50)


@pytest.fixture(scope="module")
def tiny_model():
    return build_unet(TINY, seed=3)


class TestForwardProcess:
    def test_step_with_zero_signal(self, schedule):
        noise = np.full((2, 3), 0.5, dtype=np.float32)
        out = q_sample_step(np.zeros((2, 3), np.float32), 5, schedule, noise)
        np.testing.assert_allclose(out, math.sqrt(schedule.beta[4]) * noise, rtol=1e-6)

    def test_step_with_zero_noise(self, schedule):
        x = np.full((2, 3), 0.5, dtype=np.float32)
        out = q_sample_step(x, 7, schedule, np.zeros_like(x))
        np.testing.assert_allclose(out, math.sqrt(1 - schedule.beta[6]) * x, rtol=1e-6)

    def test_step_hand_evaluation(self):
        # sqrt(0.96)*2 + sqrt(0.04)*1 with beta_t pinned to 0.04
        sch = linear_schedule(3, 0.02, 0.06)  # beta_2 = 0.04
        out = q_sample_step(np.array([2.0], np.float32), 2, sch,
                            np.array([1.0], np.float32))
        assert out[0] == pytest.approx(math.sqrt(0.96) * 2 + math.sqrt(0.04), rel=1e-6)
        assert out[0] == pytest.approx(2.1595917, abs=1e-6)

    def test_closed_form_zero_signal(self, schedule):
        # one step per sample: sample i of the batch sits at step t[i]. The
        # coefficients start from alpha_bar rounded to float32; at t=1 that
        # rounding alone moves sqrt(1 - alpha_bar) by 8e-5 of its value.
        t = np.array([1, 20, 50])
        noise = np.ones((3, 2), dtype=np.float32)
        out = diffusion.q_sample_closed(np.zeros((3, 2), np.float32), t, schedule, noise)
        abar = schedule.alpha_bar[t - 1].astype(np.float32).astype(np.float64)
        np.testing.assert_allclose(out, np.sqrt(1 - abar)[:, None] * noise, rtol=1e-6)

    def test_closed_form_keeps_signal_at_tiny_noise_level(self):
        # alpha_bar -> 1 as beta -> 0: the sample stays essentially x0
        sch = linear_schedule(2, 1e-12, 2e-12)
        x0 = np.array([[0.25, -0.5]], dtype=np.float32)
        out = diffusion.q_sample_closed(x0, np.array([1]), sch, np.zeros((1, 2), np.float32))
        np.testing.assert_allclose(out, x0, rtol=1e-6)

    def test_shape_mismatch_rejected(self, schedule):
        with pytest.raises(ad.ShapeMismatchError):
            q_sample_step(np.zeros(3, np.float32), 1, schedule,
                          np.zeros(4, np.float32))

    def test_step_out_of_range_rejected(self, schedule):
        with pytest.raises(ValueError):
            q_sample_step(np.zeros(2, np.float32), 51, schedule,
                          np.zeros(2, np.float32))

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_iterated_chain_matches_closed_form_distribution(self, schedule, t):
        # Monte-Carlo oracle: 10k independent chains of single-value states
        chains = 10_000
        x0 = 0.7
        rng = np.random.default_rng(1234 + t)
        x = np.full(chains, x0, dtype=np.float32)
        for step in range(1, t + 1):
            noise = rng.standard_normal(chains).astype(np.float32)
            x = q_sample_step(x, step, schedule, noise)
        abar = schedule.alpha_bar[t - 1]
        want_mean = math.sqrt(abar) * x0
        want_var = 1.0 - abar
        se_mean = math.sqrt(want_var / chains)
        se_var = want_var * math.sqrt(2.0 / (chains - 1))
        assert abs(x.mean() - want_mean) < 3 * se_mean + 1e-9
        assert abs(x.var() - want_var) < 3 * se_var + 1e-9


class TestTrainingLoss:
    def test_zero_when_model_predicts_the_noise(self, schedule, tiny_model, monkeypatch):
        noise = np.random.default_rng(0).standard_normal((2, 1, 8, 8)).astype(np.float32)
        monkeypatch.setattr(diffusion, "apply_denoiser",
                            lambda cfg, p, x, t: ad.Tensor(noise))
        loss, _ = diffusion.training_loss(
            tiny_model, schedule, np.zeros((2, 1, 8, 8), np.float32),
            np.array([3, 9]), noise,
        )
        assert loss.item() == 0.0

    def test_mean_square_noise_when_model_predicts_zero(self, schedule, tiny_model,
                                                        monkeypatch):
        noise = np.random.default_rng(1).standard_normal((2, 1, 8, 8)).astype(np.float32)
        monkeypatch.setattr(diffusion, "apply_denoiser",
                            lambda cfg, p, x, t: ad.Tensor(np.zeros_like(noise)))
        loss, _ = diffusion.training_loss(
            tiny_model, schedule, np.zeros((2, 1, 8, 8), np.float32),
            np.array([3, 9]), noise,
        )
        assert loss.item() == pytest.approx(float((noise ** 2).mean()), rel=1e-6)

    def test_matches_straight_line_recomputation(self, schedule, tiny_model):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        noise = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
        t = np.array([2, 25, 49])
        loss, _ = diffusion.training_loss(tiny_model, schedule, x0, t, noise)

        # oracle: rebuild x_t per sample with scalar coefficients, run the
        # inference-mode forward, and average the squared error directly
        x_t = np.stack([
            np.float32(math.sqrt(schedule.alpha_bar[ti - 1])) * x0[i]
            + np.float32(math.sqrt(1 - schedule.alpha_bar[ti - 1])) * noise[i]
            for i, ti in enumerate(t)
        ])
        predicted = predict_noise(tiny_model, x_t, t)
        expected = float(np.mean((predicted - noise) ** 2))
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_step_bounds_validated(self, schedule, tiny_model):
        with pytest.raises(ValueError):
            diffusion.training_loss(tiny_model, schedule,
                                    np.zeros((1, 1, 8, 8), np.float32),
                                    np.array([0]), np.zeros((1, 1, 8, 8), np.float32))


class TestReverseProcess:
    def test_zero_prediction_zero_noise_rescales(self, schedule, tiny_model, monkeypatch):
        monkeypatch.setattr(diffusion, "predict_noise",
                            lambda model, x, t: np.zeros_like(x))
        x_t = np.full((1, 1, 8, 8), 0.3, dtype=np.float32)
        out = diffusion.p_sample_step(tiny_model, x_t, 5, schedule, np.zeros_like(x_t))
        np.testing.assert_allclose(out, x_t / math.sqrt(schedule.alpha[4]), rtol=1e-6)

    def test_final_step_is_deterministic(self, schedule, tiny_model):
        x_1 = np.random.default_rng(2).standard_normal((1, 1, 8, 8)).astype(np.float32)
        a = diffusion.p_sample_step(tiny_model, x_1, 1, schedule, np.zeros_like(x_1))
        b = diffusion.p_sample_step(tiny_model, x_1, 1, schedule, np.zeros_like(x_1))
        np.testing.assert_array_equal(a, b)

    def test_nonzero_noise_at_final_step_rejected(self, schedule, tiny_model):
        x_1 = np.zeros((1, 1, 8, 8), np.float32)
        with pytest.raises(ValueError):
            diffusion.p_sample_step(tiny_model, x_1, 1, schedule,
                                    np.ones_like(x_1))

    def test_matches_posterior_mean_formula(self, schedule, tiny_model):
        # oracle: evaluate the update with scalar arithmetic on the model's
        # own prediction
        rng = np.random.default_rng(3)
        x_t = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        z = rng.standard_normal((2, 1, 8, 8)).astype(np.float32)
        t = 12
        out = diffusion.p_sample_step(tiny_model, x_t, t, schedule, z)
        eps = predict_noise(tiny_model, x_t, np.array([t, t]))
        beta = schedule.beta[t - 1]
        alpha = schedule.alpha[t - 1]
        abar = schedule.alpha_bar[t - 1]
        mean = (x_t - np.float32(beta / math.sqrt(1 - abar)) * eps) \
            * np.float32(1 / math.sqrt(alpha))
        expected = mean + np.float32(math.sqrt(schedule.posterior_variance[t - 1])) * z
        np.testing.assert_allclose(out, expected, rtol=2e-5, atol=1e-6)


class TestGenerate:
    def test_same_seed_same_batch(self, schedule, tiny_model):
        a = diffusion.generate(tiny_model, schedule, 3, seed=99)
        b = diffusion.generate(tiny_model, schedule, 3, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_per_sample_substreams_are_stable(self, schedule, tiny_model):
        one = diffusion.generate(tiny_model, schedule, 1, seed=7)
        two = diffusion.generate(tiny_model, schedule, 2, seed=7)
        np.testing.assert_array_equal(one[0], two[0])

    def test_untrained_model_output_clamped_and_finite(self, schedule, tiny_model):
        out = diffusion.generate(tiny_model, schedule, 2, seed=1)
        assert np.all(np.isfinite(out))
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_count_validated(self, schedule, tiny_model):
        with pytest.raises(ValueError):
            diffusion.generate(tiny_model, schedule, 0, seed=1)


class TestSplitSampling:
    """``generate`` with two workers: this process runs the first share of
    batches and a forked process the rest."""

    @pytest.fixture()
    def batch_of_two(self, monkeypatch):
        # a forked sampling process inherits the patched batch size
        monkeypatch.setattr(diffusion, "SAMPLE_BATCH", 2)

    @pytest.fixture()
    def ranges(self, monkeypatch, tmp_path):
        """The (pid, start, stop) of every ``sample_chain`` call, in any process."""
        log, original = tmp_path / "ranges", diffusion.sample_chain

        def spy(model, schedule, start, stop, seed):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {start} {stop}\n")
            return original(model, schedule, start, stop, seed)

        monkeypatch.setattr(diffusion, "sample_chain", spy)
        return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    @pytest.mark.parametrize("count, shares", [
        (1, [(0, 1)]), (2, [(0, 2)]), (3, [(0, 2), (2, 3)]), (5, [(0, 2), (2, 5)]),
    ])
    def test_split_equals_the_serial_chain(self, schedule, tiny_model, two_workers,
                                           batch_of_two, ranges, count, shares):
        split = diffusion.generate(tiny_model, schedule, count, seed=11)
        assert sorted((start, stop) for _, start, stop in ranges()) == shares
        assert {pid != os.getpid() for pid, _, _ in ranges()} == (
            {False, True} if len(shares) > 1 else {False})
        assert multiprocessing.active_children() == []
        serial = diffusion.sample_chain(tiny_model, schedule, 0, count, seed=11)
        np.testing.assert_array_equal(split, serial)

    def test_split_at_the_shipped_batch_equals_one_process(self, tiny_model, two_workers,
                                                           monkeypatch):
        count, steps = diffusion.SAMPLE_BATCH + 3, linear_schedule(4)
        split = diffusion.generate(tiny_model, steps, count, seed=4)
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        np.testing.assert_array_equal(split, diffusion.generate(tiny_model, steps, count, 4))

    def test_two_shipped_batches_run_one_here_and_one_forked(self, tiny_model, two_workers,
                                                           ranges, monkeypatch):
        size, steps = diffusion.SAMPLE_BATCH, linear_schedule(4)
        split = diffusion.generate(tiny_model, steps, 2 * size, seed=6)
        calls = ranges()
        assert sorted((start, stop) for _, start, stop in calls) == [(0, size), (size, 2 * size)]
        assert sorted(pid != os.getpid() for pid, _, _ in calls) == [False, True]
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        np.testing.assert_array_equal(split, diffusion.generate(tiny_model, steps, 2 * size, 6))

    def test_sample_is_the_same_whatever_the_count(self, schedule, tiny_model, two_workers,
                                                   batch_of_two):
        # every batch but the last is full, and a full batch is computed the
        # same whatever the count or the process
        seven = diffusion.generate(tiny_model, schedule, 7, seed=2)
        for count in (2, 4, 6):
            np.testing.assert_array_equal(
                diffusion.generate(tiny_model, schedule, count, seed=2), seven[:count])

    @pytest.fixture()
    def scripted(self, monkeypatch):
        """Make ``sample_chain`` run ``parent`` in this process and ``child``
        in the sampling process before sampling."""
        original, home = diffusion.sample_chain, os.getpid()

        def script(parent=lambda: None, child=lambda: None):
            def chain(*args):
                (parent if os.getpid() == home else child)()
                return original(*args)

            monkeypatch.setattr(diffusion, "sample_chain", chain)

        return script

    def test_error_in_a_sampling_process_is_raised_as_it_was(self, schedule, tiny_model,
                                                             two_workers, batch_of_two,
                                                             scripted):
        def fail():
            raise ValueError("scripted")

        scripted(child=fail)
        with pytest.raises(ValueError, match="^scripted$"):
            diffusion.generate(tiny_model, schedule, 4, seed=1)
        assert multiprocessing.active_children() == []

    def test_killed_sampling_process_raises_runtime_error(self, schedule, tiny_model,
                                                          two_workers, batch_of_two,
                                                          scripted):
        scripted(child=lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="sampling"):
            diffusion.generate(tiny_model, schedule, 4, seed=1)
        assert multiprocessing.active_children() == []

    def test_sampling_process_ending_mid_payload_raises_runtime_error(
            self, schedule, tiny_model, two_workers, batch_of_two, dies_mid_payload):
        # the process sends its samples' head and half of their bytes, then ends
        with pytest.raises(RuntimeError, match="^sampling: a sampling process ended"):
            diffusion.generate(tiny_model, schedule, 4, seed=1)
        assert multiprocessing.active_children() == []

    def test_error_in_this_process_terminates_the_others(self, schedule, tiny_model,
                                                         two_workers, batch_of_two,
                                                         scripted):
        def fail():
            raise ValueError("here")

        scripted(parent=fail, child=lambda: time.sleep(60))
        began = time.monotonic()
        with pytest.raises(ValueError, match="^here$"):
            diffusion.generate(tiny_model, schedule, 4, seed=1)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - began < 30  # not joined after its sleep
