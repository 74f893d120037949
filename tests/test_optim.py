from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from phoenix.autodiff import NumericError
from phoenix.optim import BLOCK, AdamState, adam_step, sgd_step

SUBNORMAL = np.float32(1e-40)


def table(rng, shapes, scale=1.0):
    """Random float32 arrays of ``shapes``; one larger than a block holds -0.0
    and subnormal entries on both sides of its first block boundary."""
    out = {k: scale * rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
    for array in out.values():
        if array.size > BLOCK:
            array.reshape(-1)[BLOCK - 2:BLOCK + 2] = [-0.0, SUBNORMAL, -SUBNORMAL, -0.0]
    return out


def test_zero_gradient_leaves_params_and_moments_unchanged():
    params = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    state = AdamState(learning_rate=0.1)
    out, state = adam_step(params, {"w": np.zeros(2, np.float32)}, state)
    np.testing.assert_array_equal(out["w"], params["w"])
    np.testing.assert_array_equal(state.first_moment["w"], np.zeros(2))
    np.testing.assert_array_equal(state.second_moment["w"], np.zeros(2))
    assert state.step_count == 1


def test_first_step_moves_by_learning_rate():
    # bias correction makes m_hat = g and v_hat = g^2 at step 1, so the
    # update is lr * g / (|g| + eps): 1.0 -> 0.9 up to the epsilon term
    params = {"w": np.array([1.0], dtype=np.float32)}
    state = AdamState(learning_rate=0.1)
    out, _ = adam_step(params, {"w": np.array([1.0], dtype=np.float32)}, state)
    assert out["w"][0] == pytest.approx(0.9, abs=1e-6)


def test_two_identical_steps_follow_scalar_recurrence():
    # independent oracle: the update recurrences evaluated with plain floats
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    g = 0.5
    p = 2.0
    m = v = 0.0
    expected = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        expected.append(p)

    params = {"w": np.array([2.0], dtype=np.float32)}
    state = AdamState(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    grads = {"w": np.array([g], dtype=np.float32)}
    params, state = adam_step(params, grads, state)
    assert params["w"][0] == pytest.approx(expected[0], rel=1e-6)
    params, state = adam_step(params, grads, state)
    assert params["w"][0] == pytest.approx(expected[1], rel=1e-6)
    assert state.step_count == 2
    assert state.first_moment["w"][0] == pytest.approx(m, rel=1e-6)
    assert state.second_moment["w"][0] == pytest.approx(v, rel=1e-6)


def test_missing_gradient_raises():
    state = AdamState(learning_rate=0.1)
    with pytest.raises(ValueError, match="missing gradients"):
        adam_step({"w": np.ones(1, np.float32)}, {}, state)


def test_non_finite_gradient_raises():
    state = AdamState(learning_rate=0.1)
    with pytest.raises(NumericError):
        adam_step({"w": np.ones(1, np.float32)},
                  {"w": np.array([np.nan], np.float32)}, state)


def test_shape_mismatch_raises():
    state = AdamState(learning_rate=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step({"w": np.ones(2, np.float32)},
                  {"w": np.ones(3, np.float32)}, state)


def test_moments_stay_shape_congruent():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 4)).astype(np.float32),
              "b": rng.standard_normal(4).astype(np.float32)}
    state = AdamState(learning_rate=1e-3)
    for _ in range(3):
        grads = {k: rng.standard_normal(v.shape).astype(np.float32)
                 for k, v in params.items()}
        params, state = adam_step(params, grads, state)
    for name, p in params.items():
        assert state.first_moment[name].shape == p.shape
        assert state.second_moment[name].shape == p.shape
    assert state.step_count == 3


def test_sgd_step_is_plain_descent():
    params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
    out = sgd_step(params, {"w": np.array([0.5, -1.0], np.float32)}, 0.1)
    np.testing.assert_allclose(out["w"], [0.95, 2.1], rtol=1e-6)


def assert_three_steps_match_textbook(shapes):
    # the textbook expressions, each evaluated into fresh arrays
    rng = np.random.default_rng(7)
    params = table(rng, shapes, 0.01)
    # a step as large as the parameters, so its last bits reach the result
    lr, b1, b2, eps = 0.03, 0.9, 0.999, 1e-8
    state = AdamState(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    expected = dict(params)
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t in (1, 2, 3):
        grads = table(rng, shapes)
        for k, g in grads.items():
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            m_hat = m[k] / (1.0 - b1 ** t)
            v_hat = v[k] / (1.0 - b2 ** t)
            expected[k] = expected[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        params, state = adam_step(params, grads, state)
        for k in shapes:
            assert params[k].dtype == np.float32
            # bit patterns, so that -0.0 and 0.0 differ
            for got, want in ((params[k], expected[k]), (state.first_moment[k], m[k]),
                              (state.second_moment[k], v[k])):
                np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_three_steps_bitwise_equal_to_textbook_formula():
    assert_three_steps_match_textbook(
        {"conv.w": (4, 3, 3, 3), "conv.b": (4,), "lin.w": (5, 2), "emb": (1, 6, 1, 2)})


def test_three_steps_across_blocks_bitwise_equal_to_textbook_formula():
    # one parameter three elements past a block, one within a block
    assert_three_steps_match_textbook({"big": (BLOCK + 3,), "conv.w": (4, 3, 3, 3)})


def test_non_finite_gradient_in_a_later_block_leaves_everything_untouched():
    rng = np.random.default_rng(3)
    shapes = {"big": (BLOCK + 3,), "conv.w": (4, 3, 3, 3)}
    params, grads = table(rng, shapes, 0.01), table(rng, shapes)
    params, state = adam_step(params, grads, AdamState(learning_rate=1e-2))
    grads["big"][BLOCK + 1] = np.inf
    inputs = (params, grads, state.first_moment, state.second_moment)
    kept = [{k: v.copy() for k, v in tables.items()} for tables in inputs]
    with pytest.raises(NumericError, match="non-finite gradient for 'big'"):
        adam_step(params, grads, state)
    assert state.step_count == 1
    for tables, copies in zip(inputs, kept):
        for k in shapes:
            np.testing.assert_array_equal(tables[k], copies[k])


def test_step_leaves_inputs_and_earlier_state_untouched():
    rng = np.random.default_rng(8)
    params = {"w": rng.standard_normal((3, 4)).astype(np.float32)}
    state = AdamState(learning_rate=1e-2)
    params, state = adam_step(params, {"w": rng.standard_normal((3, 4)).astype(np.float32)},
                              state)
    earlier = state
    kept_m = earlier.first_moment["w"].copy()
    kept_v = earlier.second_moment["w"].copy()
    kept_p = params["w"].copy()
    grads = {"w": rng.standard_normal((3, 4)).astype(np.float32)}
    kept_g = grads["w"].copy()
    _, state = adam_step(params, grads, state)
    assert earlier.step_count == 1 and state.step_count == 2
    np.testing.assert_array_equal(earlier.first_moment["w"], kept_m)
    np.testing.assert_array_equal(earlier.second_moment["w"], kept_v)
    assert not np.array_equal(state.first_moment["w"], kept_m)
    np.testing.assert_array_equal(params["w"], kept_p)
    np.testing.assert_array_equal(grads["w"], kept_g)


def test_step_on_read_only_inputs_returns_a_new_state():
    rng = np.random.default_rng(9)

    def read_only(a):
        a.flags.writeable = False
        return a

    shapes = {"w": (3, 4), "b": (4,)}
    params = {k: read_only(rng.standard_normal(s).astype(np.float32))
              for k, s in shapes.items()}
    grads = {k: read_only(rng.standard_normal(s).astype(np.float32))
             for k, s in shapes.items()}
    state = AdamState(
        learning_rate=1e-2, step_count=1,
        first_moment={k: read_only(0.1 * rng.standard_normal(s).astype(np.float32))
                      for k, s in shapes.items()},
        second_moment={k: read_only(0.01 * rng.random(s).astype(np.float32))
                       for k, s in shapes.items()},
    )
    first, second = dict(state.first_moment), dict(state.second_moment)
    out, after = adam_step(params, grads, state)
    assert state.step_count == 1 and after is not state and after.step_count == 2
    for name in shapes:
        assert state.first_moment[name] is first[name]
        assert state.second_moment[name] is second[name]
        assert after.first_moment[name] is not first[name]
        assert after.second_moment[name] is not second[name]
        assert not np.array_equal(out[name], params[name])
    with pytest.raises(FrozenInstanceError):
        state.step_count = 2
