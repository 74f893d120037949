"""Finite-difference oracle and randomized graph templates for gradient checks.

Checks run in float64 so central differences at h=1e-5 resolve the
gradients; the engine's ops are dtype-generic, so the same code paths are
exercised as in float32 production use. The step is small enough for the
three-conv chain, whose truncation error at h=1e-3 exceeds the tolerance
(criterion 1's instance 19 misses by a factor of 1.2), and large enough
that float64 rounding stays far below it: at h=1e-5 every template's worst
gap is under 1% of the tolerance.
"""

from __future__ import annotations

import numpy as np

from phoenix import autodiff as ad
from phoenix.unet import time_embedding

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_TOL = 1e-6


def analytic_gradients(build, params):
    """Run the engine's backward pass over ``build``'s graph."""
    leaves = {k: ad.Tensor(v, requires_grad=True, name=k) for k, v in params.items()}
    loss = build(leaves)
    ad.backward(loss)
    return {k: leaf.grad for k, leaf in leaves.items()}, loss.item()


def loss_value(build, params) -> float:
    leaves = {k: ad.Tensor(v, name=k) for k, v in params.items()}
    return build(leaves).item()


def finite_difference_gradients(build, params, h: float = FD_STEP):
    """Central differences over every entry of every parameter."""
    grads = {}
    work = {k: v.copy() for k, v in params.items()}
    for name, arr in work.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = arr[idx]
            arr[idx] = saved + h
            up = loss_value(build, work)
            arr[idx] = saved - h
            dn = loss_value(build, work)
            arr[idx] = saved
            g[idx] = (up - dn) / (2.0 * h)
            it.iternext()
        grads[name] = g
    return grads


def assert_gradients_match(analytic, numeric, rel=REL_TOL, absolute=ABS_TOL):
    for name in numeric:
        a = analytic[name]
        f = numeric[name]
        assert a is not None, f"no analytic gradient for '{name}'"
        gap = np.abs(a - f)
        tol = absolute + rel * np.maximum(np.abs(a), np.abs(f))
        bad = gap > tol
        assert not bad.any(), (
            f"gradient mismatch for '{name}' at {np.argwhere(bad)[0]}: "
            f"analytic {a[bad][0]}, finite-difference {f[bad][0]}"
        )


def _const(rng, shape):
    return ad.Tensor(rng.standard_normal(shape))


def template_elementwise(rng):
    shape = tuple(rng.integers(2, 5, size=2))
    params = {"a": rng.standard_normal(shape), "b": rng.standard_normal(shape),
              "c": rng.standard_normal(shape[1])}
    target = rng.standard_normal(shape)
    gate = rng.standard_normal(shape)

    def build(p):
        # "a" is read twice and the row "c" broadcasts over the rows of "a"
        mixed = ad.add(ad.silu(p["a"]), ad.add(p["a"], p["c"]))
        # a branch over constants only (so it records no graph) meets the grad branch
        const_branch = ad.silu(ad.Tensor(gate))
        h = ad.add(ad.silu(ad.add(mixed, p["b"])), const_branch)
        return ad.mse_loss(h, ad.Tensor(target))

    return build, params, {"add", "silu", "mse_loss"}


def template_matmul_classifier(rng):
    n, d, k = int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
    params = {"x": rng.standard_normal((n, d)), "w": rng.standard_normal((d, k)),
              "b": rng.standard_normal(k)}
    labels = rng.integers(0, k, size=n)

    def build(p):
        logits = ad.add(ad.matmul(p["x"], p["w"]), p["b"])
        return ad.nll_loss(ad.log_softmax(logits), labels)

    return build, params, {"matmul", "add", "log_softmax", "nll_loss"}


KERNEL_PAIRS = (((3, 3), (3, 3)), ((3, 5), (1, 3)))


def template_conv_stack(rng):
    # the non-square pair catches a kh/kw mix-up in the input gradient; at
    # seed 123, instances 2 and 10 draw one pair each
    (k1h, k1w), (k2h, k2w) = KERNEL_PAIRS[int(rng.integers(len(KERNEL_PAIRS)))]
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    mid = int(rng.integers(2, 4))
    side = int(rng.integers(5, 8))
    params = {
        "x": rng.standard_normal((n, c, side, side)),
        "w1": rng.standard_normal((mid, c, k1h, k1w)),
        "b1": rng.standard_normal(mid),
        "w2": rng.standard_normal((2, mid, k2h, k2w)),
        "b2": rng.standard_normal(2),
    }
    target = rng.standard_normal((n, 2, side, side))

    def build(p):
        h = ad.silu(ad.conv2d(p["x"], p["w1"], p["b1"]))
        h = ad.conv2d(h, p["w2"], p["b2"])
        return ad.mse_loss(h, ad.Tensor(target))

    return build, params, {"conv2d", "silu", "mse_loss"}


def template_conv_chain(rng):
    # three convs deep, the depth of a U-Net residual block's path from its
    # input through conv1 and conv2 to the next block's conv1
    n, side = int(rng.integers(1, 3)), int(rng.integers(5, 8))
    chans = [int(c) for c in rng.integers(1, 3, size=4)]
    kernels = [(3, 5), (3, 3), (1, 3)]
    params = {"x": rng.standard_normal((n, chans[0], side, side))}
    for i, (kh, kw) in enumerate(kernels):
        params[f"w{i}"] = rng.standard_normal((chans[i + 1], chans[i], kh, kw))
        params[f"b{i}"] = rng.standard_normal(chans[i + 1])
    target = rng.standard_normal((n, chans[3], side, side))

    def build(p):
        h = p["x"]
        for i in range(len(kernels)):
            h = ad.silu(ad.conv2d(h, p[f"w{i}"], p[f"b{i}"]))
        return ad.mse_loss(h, ad.Tensor(target))

    return build, params, {"conv2d", "silu", "mse_loss"}


def template_resample(rng):
    n, c, side = 1, int(rng.integers(1, 3)), int(rng.integers(2, 4)) * 2
    params = {
        "x": rng.standard_normal((n, c, side, side)),
        "w": rng.standard_normal((c, c, 1, 1)),
        "b": rng.standard_normal(c),
    }
    target = rng.standard_normal((n, c, side, side))

    def build(p):
        h = ad.upsample_nearest2x(ad.conv2d(p["x"], p["w"], p["b"]))
        return ad.mse_loss(ad.avg_pool2x(h), ad.Tensor(target))

    return build, params, {"upsample_nearest2x", "avg_pool2x", "conv2d", "mse_loss"}


def template_norm_concat(rng):
    n, c, side = int(rng.integers(1, 3)), 4, 4
    params = {
        "x": rng.standard_normal((n, c, side, side)),
        "gamma": rng.standard_normal(c),
        "beta": rng.standard_normal(c),
        "w": rng.standard_normal((2, c, 3, 3)),
        "b": rng.standard_normal(2),
    }
    target = rng.standard_normal((n, c + 2, side, side))

    def build(p):
        a = ad.group_norm(p["x"], p["gamma"], p["beta"], groups=2)
        bpart = ad.conv2d(p["x"], p["w"], p["b"])
        return ad.mse_loss(ad.concat([a, bpart], axis=1), ad.Tensor(target))

    return build, params, {"group_norm", "concat", "conv2d", "mse_loss"}


def template_reshape_head(rng):
    n, c, side = int(rng.integers(1, 3)), int(rng.integers(1, 3)), 4
    flat = c * side * side
    params = {
        "x": rng.standard_normal((n, c, side, side)),
        "w": rng.standard_normal((flat, 3)),
    }
    target = rng.standard_normal((n, 3))

    def build(p):
        h = ad.reshape(p["x"], (n, flat))
        return ad.mse_loss(ad.matmul(h, p["w"]), ad.Tensor(target))

    return build, params, {"reshape", "matmul", "mse_loss"}


def template_time_embedding(rng):
    dim = int(rng.integers(2, 5)) * 2
    steps = rng.integers(1, 1000, size=3)
    emb = time_embedding(steps, dim)
    params = {"w": rng.standard_normal((dim, 2)), "b": rng.standard_normal(2)}
    target = rng.standard_normal((3, 2))

    def build(p):
        h = ad.add(ad.matmul(ad.Tensor(emb), p["w"]), p["b"])
        return ad.mse_loss(ad.silu(h), ad.Tensor(target))

    return build, params, {"time_embedding", "matmul", "add", "silu", "mse_loss"}


TEMPLATES = [
    template_elementwise,
    template_matmul_classifier,
    template_conv_stack,
    template_conv_chain,
    template_resample,
    template_norm_concat,
    template_reshape_head,
    template_time_embedding,
]

ALL_PRIMITIVES = {
    "add", "matmul", "conv2d", "upsample_nearest2x", "avg_pool2x", "silu",
    "group_norm", "concat", "mse_loss", "reshape", "log_softmax", "nll_loss",
    "time_embedding",
}


def random_graph(index: int, seed: int = 0):
    """Instance ``index`` of the randomized template suite."""
    rng = np.random.default_rng(seed + index)
    template = TEMPLATES[index % len(TEMPLATES)]
    return template(rng)
