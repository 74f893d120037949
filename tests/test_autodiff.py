import inspect
import weakref
from collections import Counter

import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix import diffusion
from phoenix.classifier import train_eval_classifier
from phoenix.config import load_config
from phoenix.datasets import make_toy_dataset
from phoenix.unet import build_unet
from gradcheck import (
    ALL_PRIMITIVES,
    analytic_gradients,
    assert_gradients_match,
    finite_difference_gradients,
    random_graph,
)


class TestForward:
    def test_elementwise_add(self):
        out = ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_identity_reshape(self):
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = ad.reshape(ad.Tensor(x), (2, 3))
        np.testing.assert_array_equal(out.data, x)

    def test_two_layer_perceptron_matches_straight_line_evaluation(self):
        # independent oracle: the same arithmetic written out with raw numpy
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        w1 = rng.standard_normal((4, 5)).astype(np.float32)
        b1 = rng.standard_normal(5).astype(np.float32)
        w2 = rng.standard_normal((5, 2)).astype(np.float32)
        b2 = rng.standard_normal(2).astype(np.float32)

        h = x @ w1 + b1
        h = h * (1.0 / (1.0 + np.exp(-h)))
        expected = h @ w2 + b2

        got = ad.add(
            ad.matmul(ad.silu(ad.add(ad.matmul(ad.Tensor(x), ad.Tensor(w1)), ad.Tensor(b1))),
                      ad.Tensor(w2)),
            ad.Tensor(b2),
        )
        np.testing.assert_allclose(got.data, expected, rtol=1e-6)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ad.ShapeMismatchError, match="matmul"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_nonfinite_result_names_op(self):
        big = ad.Tensor(np.full(4, 3e38, dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NumericError, match="add"):
                ad.add(big, big)


class TestBackward:
    def test_square_gradient(self):
        x = ad.Tensor(np.array([[3.0]]), requires_grad=True)
        loss = ad.matmul(x, x)  # a 1x1 product is x^2
        ad.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_constant_gradient_is_zero(self):
        # x feeds the loss only through a product with zeros
        x = ad.Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        loss = ad.mse_loss(ad.matmul(x, ad.Tensor(np.zeros((2, 1)))),
                           ad.Tensor(np.ones((1, 1))))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros((1, 2)))

    def test_backward_rejects_non_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.GraphUsageError):
            ad.backward(ad.silu(x))

    def test_backward_without_grad_leaves(self):
        out = ad.mse_loss(ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)))
        with pytest.raises(ad.GraphUsageError):
            ad.backward(out)

    def test_three_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = {
            "x": rng.standard_normal((2, 3)),
            "w1": rng.standard_normal((3, 4)),
            "w2": rng.standard_normal((4, 4)),
            "w3": rng.standard_normal((4, 2)),
        }
        target = rng.standard_normal((2, 2))

        def build(p):
            h = ad.silu(ad.matmul(p["x"], p["w1"]))
            h = ad.silu(ad.matmul(h, p["w2"]))
            return ad.mse_loss(ad.matmul(h, p["w3"]), ad.Tensor(target))

        analytic, _ = analytic_gradients(build, params)
        numeric = finite_difference_gradients(build, params)
        assert_gradients_match(analytic, numeric)

    def test_gradient_accumulates_over_reuse(self):
        x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        loss = ad.add(ad.matmul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
        ad.backward(loss)
        assert x.grad == pytest.approx(5.0)

    def test_first_gradient_negative_zero_ends_positive_zero(self, monkeypatch):
        # the first write starts from +0.0, as a sum does
        target = ad.Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        pred = ad.Tensor(np.array([1.0, 5.0], np.float32))
        first, original = [], ad._accumulate

        def spy(t, g):
            if t is target and t.grad is None:
                first.append(np.array(g))
            original(t, g)

        monkeypatch.setattr(ad, "_accumulate", spy)
        ad.backward(ad.mse_loss(pred, target))
        assert first[0][0] == 0.0 and np.signbit(first[0][0])  # -(2/n * 0.0)
        assert target.grad[0] == 0.0 and not np.signbit(target.grad[0])
        assert target.grad.dtype == np.float32 and target.grad[1] == -3.0

    def test_topo_order_puts_inputs_before_consumers(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.silu(x)
        z = ad.add(y, x)
        loss = ad.mse_loss(ad.silu(z), ad.Tensor(np.zeros(3)))
        order = ad.topo_order(loss)
        position = {id(node): i for i, node in enumerate(order)}
        assert order[-1] is loss
        for node in order:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]


def _const(*shape):
    return ad.Tensor(np.ones(shape, np.float32))


# every primitive, applied to inputs that do not require grads
NO_GRAD_CALLS = {
    "add": lambda: ad.add(_const(2, 3), _const(3)),
    "matmul": lambda: ad.matmul(_const(2, 3), _const(3, 4)),
    "reshape": lambda: ad.reshape(_const(2, 3), (3, 2)),
    "concat": lambda: ad.concat([_const(1, 2, 4, 4), _const(1, 3, 4, 4)], axis=1),
    "silu": lambda: ad.silu(_const(2, 3)),
    "group_norm": lambda: ad.group_norm(_const(1, 4, 2, 2), _const(4), _const(4), 2),
    "conv2d": lambda: ad.conv2d(_const(1, 2, 4, 4), _const(3, 2, 3, 3), _const(3)),
    "upsample_nearest2x": lambda: ad.upsample_nearest2x(_const(1, 1, 2, 2)),
    "avg_pool2x": lambda: ad.avg_pool2x(_const(1, 1, 4, 4)),
    "mse_loss": lambda: ad.mse_loss(_const(2, 3), _const(2, 3)),
    "log_softmax": lambda: ad.log_softmax(_const(2, 3)),
    "nll_loss": lambda: ad.nll_loss(_const(2, 3), np.array([0, 2])),
}


class TestGraphRecording:
    @pytest.mark.parametrize("op", sorted(NO_GRAD_CALLS))
    def test_no_grad_result_keeps_no_graph(self, op):
        out = NO_GRAD_CALLS[op]()
        assert out.op == op
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_intermediate_freed_unless_grad_flows(self, requires_grad):
        # Tensor has no weakref slot, so its array stands in for it
        x = ad.Tensor(np.ones(4, np.float32), requires_grad=requires_grad)
        inner = ad.silu(x)
        inner_data = weakref.ref(inner.data)
        y = ad.silu(inner)
        del inner
        assert (inner_data() is not None) == requires_grad
        assert len(y._parents) == requires_grad


class TestRandomGraphs:
    @pytest.mark.parametrize("index", range(14))
    def test_gradients_match_finite_differences(self, index):
        build, params, _ = random_graph(index, seed=123)
        analytic, _ = analytic_gradients(build, params)
        numeric = finite_difference_gradients(build, params)
        assert_gradients_match(analytic, numeric)

    def test_templates_cover_every_primitive(self):
        seen = set()
        for index in range(len(ALL_PRIMITIVES)):
            _, _, ops = random_graph(index, seed=123)
            seen |= ops
        assert seen == ALL_PRIMITIVES


class TestEngineSurface:
    def test_networks_call_every_public_function(self, monkeypatch):
        # a primitive neither network calls fails here, so criterion 1's
        # gradient sweep covers exactly what production runs
        public = {name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_")}
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in public:
            monkeypatch.setattr(ad, name, counting(name, getattr(ad, name)))
        cfg = load_config("desk")
        model = build_unet(cfg.model_config(), seed=0)
        schedule = cfg.diffusion.build()
        x0 = np.zeros((2, 1, 8, 8), np.float32)
        loss, _ = diffusion.training_loss(model, schedule, x0, np.array([1, 50]), x0)
        ad.backward(loss)
        diffusion.p_sample_step(model, x0, 2, schedule, x0)
        train_eval_classifier(make_toy_dataset(4, 8, 8, seed=0), epochs=1, seed=0)
        assert set(calls) == public
        assert public - {"backward", "topo_order"} == ALL_PRIMITIVES - {"time_embedding"}


class TestDeterminism:
    def test_forward_and_backward_bitwise_stable(self):
        def run():
            rng = np.random.default_rng(11)
            params = {
                "x": rng.standard_normal((2, 2, 4, 4)).astype(np.float32),
                "w": rng.standard_normal((3, 2, 3, 3)).astype(np.float32),
                "b": rng.standard_normal(3).astype(np.float32),
                "g": np.ones(3, np.float32),
                "s": np.zeros(3, np.float32),
            }
            leaves = {k: ad.Tensor(v, requires_grad=True) for k, v in params.items()}
            h = ad.conv2d(leaves["x"], leaves["w"], leaves["b"])
            h = ad.group_norm(h, leaves["g"], leaves["s"], groups=3)
            loss = ad.mse_loss(ad.silu(h), ad.Tensor(np.zeros_like(h.data)))
            ad.backward(loss)
            return loss.item(), {k: v.grad.copy() for k, v in leaves.items()}

        loss_a, grads_a = run()
        loss_b, grads_b = run()
        assert loss_a == loss_b
        for k in grads_a:
            np.testing.assert_array_equal(grads_a[k], grads_b[k])


class TestShapeAlgebra:
    @pytest.mark.parametrize("side,k", [(8, 3), (5, 1), (7, 5)],
                             ids=["8-3-same-8", "5-1-same-5", "7-5-same-7"])
    def test_conv_output_side(self, side, k):
        x = ad.Tensor(np.zeros((1, 2, side, side), np.float32))
        w = ad.Tensor(np.zeros((4, 2, k, k), np.float32))
        out = ad.conv2d(x, w, ad.Tensor(np.zeros(4, np.float32)))
        assert out.data.shape == (1, 4, side, side)

    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_pool_and_upsample_sides(self, side):
        x = ad.Tensor(np.zeros((1, 1, side, side), np.float32))
        assert ad.avg_pool2x(x).data.shape == (1, 1, side // 2, side // 2)
        assert ad.upsample_nearest2x(x).data.shape == (1, 1, side * 2, side * 2)

    def test_concat_channel_sum(self):
        a = ad.Tensor(np.zeros((2, 3, 4, 4), np.float32))
        b = ad.Tensor(np.zeros((2, 5, 4, 4), np.float32))
        assert ad.concat([a, b], axis=1).data.shape == (2, 8, 4, 4)

    def test_conv_even_kernel_same_rejected(self):
        x = ad.Tensor(np.zeros((1, 1, 4, 4), np.float32))
        w = ad.Tensor(np.zeros((1, 1, 2, 2), np.float32))
        with pytest.raises(ad.ShapeMismatchError):
            ad.conv2d(x, w, ad.Tensor(np.zeros(1, np.float32)))

    def test_pool_odd_side_rejected(self):
        x = ad.Tensor(np.zeros((1, 1, 5, 5), np.float32))
        with pytest.raises(ad.ShapeMismatchError):
            ad.avg_pool2x(x)


class TestOpSemantics:
    def test_upsample_repeats_pixels(self):
        x = ad.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        out = ad.upsample_nearest2x(x)
        np.testing.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]],
        )

    def test_avg_pool_means_blocks(self):
        x = ad.Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = ad.avg_pool2x(x)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_group_norm_normalizes_groups(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 4, 4, 4)).astype(np.float32)
        out = ad.group_norm(
            ad.Tensor(x), ad.Tensor(np.ones(4, np.float32)),
            ad.Tensor(np.zeros(4, np.float32)), groups=2,
        )
        grouped = out.data.reshape(3, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-3)

    def test_silu_values(self):
        x = ad.Tensor(np.array([0.0, 1.0], dtype=np.float32))
        out = ad.silu(x)
        np.testing.assert_allclose(out.data, [0.0, 1.0 / (1.0 + np.exp(-1.0))],
                                   rtol=1e-6)
        # saturated inputs: finite, in range, and the float64 value
        big = np.array([20.0, -20.0, 100.0, -100.0])
        expected = 1.0 / (1.0 + np.exp(-big))
        for dtype in (np.float32, np.float64):
            out = ad.silu(ad.Tensor(big.astype(dtype)))
            sig = out.data / big.astype(dtype)
            assert np.all(np.isfinite(out.data))
            assert np.all((sig >= 0.0) & (sig <= 1.0))
            np.testing.assert_allclose(sig, expected, rtol=0, atol=1e-6)
            np.testing.assert_allclose(out.data, big * expected, rtol=1e-6, atol=1e-6)

    def test_sigmoid_is_the_tanh_expression_bit_for_bit(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        mags = np.concatenate([
            [0.0, tiny, 2 * tiny, 1e-40, np.finfo(np.float32).tiny],
            np.logspace(-38, 30, 2001), np.linspace(0.0, 20.0, 20001)])
        x = np.concatenate([mags, -mags]).astype(np.float32)
        assert np.signbit(x[mags.size]) and x[mags.size] == 0.0  # -0.0 is swept
        got = ad._sigmoid(x)
        expected = 0.5 * (1.0 + np.tanh(0.5 * x))
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()

    def test_log_softmax_rows_normalize(self):
        x = ad.Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        out = ad.log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-12)

    def test_mse_scalar(self):
        out = ad.mse_loss(ad.Tensor(np.array([1.0, 3.0])), ad.Tensor(np.array([0.0, 1.0])))
        assert out.item() == pytest.approx(2.5)
