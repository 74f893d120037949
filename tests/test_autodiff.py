import numpy as np
import pytest

from phoenix import autodiff as ad
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
        big = ad.Tensor(np.full(4, 1e30, dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NumericError, match="mul"):
                ad.mul(big, big)


class TestBackward:
    def test_square_gradient(self):
        x = ad.Tensor(np.array(3.0), requires_grad=True)
        loss = ad.mul(x, x)
        ad.backward(loss)
        assert x.grad == pytest.approx(6.0)

    def test_constant_gradient_is_zero(self):
        x = ad.Tensor(np.array([2.0, -1.0]), requires_grad=True)
        loss = ad.mse_loss(ad.scale(x, 0.0), ad.Tensor(np.zeros(2)))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros(2))

    def test_backward_rejects_non_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.GraphUsageError):
            ad.backward(ad.scale(x, 2.0))

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
        x = ad.Tensor(np.array(2.0), requires_grad=True)
        loss = ad.add(ad.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
        ad.backward(loss)
        assert x.grad == pytest.approx(5.0)

    def test_topo_order_puts_inputs_before_consumers(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.mul(x, x)
        z = ad.add(y, x)
        loss = ad.mse_loss(ad.silu(z), ad.Tensor(np.zeros(3)))
        order = ad.topo_order(loss)
        position = {id(node): i for i, node in enumerate(order)}
        assert order[-1] is loss
        for node in order:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]


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
            h = ad.conv2d(leaves["x"], leaves["w"], leaves["b"], "same")
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
    @pytest.mark.parametrize("side,k,padding,expected", [
        (8, 3, "same", 8),
        (8, 3, "valid", 6),
        (5, 1, "same", 5),
        (7, 5, "valid", 3),
    ])
    def test_conv_output_side(self, side, k, padding, expected):
        x = ad.Tensor(np.zeros((1, 2, side, side), np.float32))
        w = ad.Tensor(np.zeros((4, 2, k, k), np.float32))
        out = ad.conv2d(x, w, None, padding)
        assert out.shape == (1, 4, expected, expected)

    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_pool_and_upsample_sides(self, side):
        x = ad.Tensor(np.zeros((1, 1, side, side), np.float32))
        assert ad.avg_pool2x(x).shape == (1, 1, side // 2, side // 2)
        assert ad.upsample_nearest2x(x).shape == (1, 1, side * 2, side * 2)

    def test_concat_channel_sum(self):
        a = ad.Tensor(np.zeros((2, 3, 4, 4), np.float32))
        b = ad.Tensor(np.zeros((2, 5, 4, 4), np.float32))
        assert ad.concat([a, b], axis=1).shape == (2, 8, 4, 4)

    def test_conv_even_kernel_same_rejected(self):
        x = ad.Tensor(np.zeros((1, 1, 4, 4), np.float32))
        w = ad.Tensor(np.zeros((1, 1, 2, 2), np.float32))
        with pytest.raises(ad.ShapeMismatchError):
            ad.conv2d(x, w, None, "same")

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

    def test_log_softmax_rows_normalize(self):
        x = ad.Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        out = ad.log_softmax(x)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-12)

    def test_mse_scalar(self):
        out = ad.mse_loss(ad.Tensor(np.array([1.0, 3.0])), ad.Tensor(np.array([0.0, 1.0])))
        assert out.item() == pytest.approx(2.5)
