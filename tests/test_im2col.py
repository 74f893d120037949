"""The channels-last im2col, conv2d through it, and avg_pool2x's block sum.

conv2d's forward pass, dW (through the saved columns) and dx (through the
columns of the incoming gradient) all read ``_im2col``, whose columns are
in (kh, kw, C) order. The columns must equal their loop definition bit for
bit, conv2d must equal the same GEMMs over loop-built columns bit for bit,
and a float64 direct correlation, which builds no columns, checks what the
columns mean apart from their order. Shapes come from the models
themselves: every conv and pool of one denoiser pass and one eval
classifier pass.
"""

import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix import unet
from phoenix.classifier import CONV_WIDTHS, ClassifierConfig, EvalClassifier
from phoenix.config import load_config


def _loop_im2col(a, ph, pw, kh, kw):
    """cols[(n,i,j),(u,v,c)] = xpad[n,c,i+u,j+v], written out as loops."""
    n, c, h, w = a.shape
    xpad = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    xpad[:, :, ph:ph + h, pw:pw + w] = a
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    cols = np.empty((n, ho, wo, kh, kw, c), dtype=a.dtype)
    for i in range(ho):
        for j in range(wo):
            for u in range(kh):
                for v in range(kw):
                    cols[:, i, j, u, v, :] = xpad[:, :, i + u, j + v]
    return cols.reshape(n * ho * wo, kh * kw * c), ho, wo


def _pads(kh, kw):
    """The same pad, which conv2d's forward and dx both pass, then no pad and
    the full pad: ``_im2col`` takes any pad, and its window arithmetic is
    checked at both extremes."""
    return [((kh - 1) // 2, (kw - 1) // 2), (0, 0), (kh - 1, kw - 1)]


_CASES = [(kh, kw, ph, pw) for kh, kw in [(3, 3), (1, 1), (1, 3), (3, 5)]
          for ph, pw in _pads(kh, kw)]


class TestDefinition:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh, kw, ph, pw", _CASES)
    def test_equals_loop_definition(self, kh, kw, ph, pw, dtype):
        a = np.random.default_rng(0).standard_normal((2, 3, 5, 6)).astype(dtype)
        cols, ho, wo = ad._im2col(a, ph, pw, kh, kw)
        ref, rho, rwo = _loop_im2col(a, ph, pw, kh, kw)
        assert (ho, wo) == (rho, rwo)
        assert cols.dtype == dtype and cols.flags.c_contiguous
        assert cols.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kh, kw, ph, pw", _CASES)
    def test_non_contiguous_input(self, kh, kw, ph, pw):
        # dx passes the incoming gradient, which may be a strided view
        nhwc = np.random.default_rng(1).standard_normal((2, 5, 6, 3)).astype(np.float32)
        a = nhwc.transpose(0, 3, 1, 2)
        assert not a.flags.c_contiguous
        assert (ad._im2col(a, ph, pw, kh, kw)[0].tobytes()
                == _loop_im2col(a, ph, pw, kh, kw)[0].tobytes())

    @pytest.mark.parametrize("kh, kw, ph, pw", _CASES)
    def test_batch_of_one(self, kh, kw, ph, pw):
        a = np.random.default_rng(2).standard_normal((1, 2, 4, 7)).astype(np.float32)
        assert (ad._im2col(a, ph, pw, kh, kw)[0].tobytes()
                == _loop_im2col(a, ph, pw, kh, kw)[0].tobytes())

    def test_negative_zero_and_nan_copied_as_is(self):
        a = np.array([-0.0, np.nan, 1.5, -2.0], dtype=np.float32).reshape(1, 1, 2, 2)
        cols, _, _ = ad._im2col(a, 1, 1, 3, 3)
        ref, _, _ = _loop_im2col(a, 1, 1, 3, 3)
        assert cols.tobytes() == ref.tobytes()


def _shapes(op, preset, batch):
    """The argument shapes of every call to ``ad.<op>`` in one denoiser pass
    and one eval-classifier pass at ``batch``, each shape once."""
    config = load_config(preset).model_config()
    side, chans = config.image_side, config.image_channels
    images = np.zeros((batch, chans, side, side), np.float32)
    shapes = []
    original = getattr(ad, op)

    def spy(*args):
        shapes.append(tuple(a.data.shape for a in args if isinstance(a, ad.Tensor)))
        return original(*args)

    mp = pytest.MonkeyPatch()
    mp.setattr(ad, op, spy)
    try:
        unet.predict_noise(unet.build_unet(config, 0), images, np.ones(batch, np.int64))
        # the classifier's convs do not depend on its class count
        EvalClassifier.initialize(ClassifierConfig(chans, side, 10), 0).embed(images)
    finally:
        mp.undo()
    return list(dict.fromkeys(shapes))


def _conv_shapes(preset, batch):
    """(x shape, weight shape) of every conv in one denoiser pass and one
    eval-classifier pass."""
    return [s[:2] for s in _shapes("conv2d", preset, batch)]


def _conv_results(x_shape, w_shape, dtype=np.float32):
    """conv2d's inputs, its output, its three gradients and the upstream
    gradient it was given, which arrives through a concat as in the U-Net's
    decoder."""
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
    w = ad.Tensor(0.1 * rng.standard_normal(w_shape).astype(dtype), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(w_shape[0]).astype(dtype), requires_grad=True)
    out = ad.conv2d(x, w, b)
    other = ad.Tensor(np.zeros_like(out.data))
    joined = ad.concat([out, other], axis=1)
    target = ad.Tensor(rng.standard_normal(joined.data.shape).astype(dtype))
    ad.backward(ad.mse_loss(joined, target))
    return (x.data, w.data, b.data, out.grad), (out.data, w.grad, x.grad, b.grad)


def _loop_column_conv(x, w, b, g):
    """conv2d's output and gradients through the same GEMMs, over columns
    and a rotated kernel built by loops."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    cols, _, _ = _loop_im2col(x, ph, pw, kh, kw)
    wmat = np.empty((o, kh, kw, c), dtype=w.dtype)
    wrot = np.empty((kh, kw, o, c), dtype=w.dtype)
    for u in range(kh):
        for v in range(kw):
            wmat[:, u, v, :] = w[:, :, u, v]
            wrot[u, v] = w[:, :, kh - 1 - u, kw - 1 - v]
    wmat = wmat.reshape(o, kh * kw * c)
    out = (cols @ wmat.T).reshape(n, h, wd, o).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out + b[None, :, None, None])
    gm = g.transpose(0, 2, 3, 1).reshape(n * h * wd, o)
    dw = (gm.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    gcols, _, _ = _loop_im2col(g, ph, pw, kh, kw)
    dx = (gcols @ wrot.reshape(kh * kw * o, c)).reshape(n, h, wd, c).transpose(0, 3, 1, 2)
    return out, dw, dx, g.sum(axis=(0, 2, 3))


def _direct_conv(x, w, b, g):
    """Cross-correlation and its gradients, one kernel tap at a time."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xpad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, o, h, wd)) + b[None, :, None, None]
    dw = np.zeros_like(w)
    dxpad = np.zeros_like(xpad)
    for u in range(kh):
        for v in range(kw):
            patch = xpad[:, :, u:u + h, v:v + wd]
            out += np.einsum("nchw,oc->nohw", patch, w[:, :, u, v])
            dw[:, :, u, v] = np.einsum("nohw,nchw->oc", g, patch)
            dxpad[:, :, u:u + h, v:v + wd] += np.einsum("nohw,oc->nchw", g, w[:, :, u, v])
    return out, dw, dxpad[:, :, ph:ph + h, pw:pw + wd], g.sum(axis=(0, 2, 3))


_DESK_8 = _conv_shapes("desk", 8)
_DESK = _DESK_8 + _conv_shapes("desk", 128)
_PAPER = _conv_shapes("paper", 1)


def _shape_id(shape):
    (n, c, h, w), (o, _, kh, kw) = shape
    return f"n{n}-c{c}-{h}x{w}-o{o}-k{kh}x{kw}-same"


@pytest.mark.parametrize("shape", _DESK + _PAPER, ids=_shape_id)
def test_conv2d_matches_transpose_copy_reference(shape):
    """Bit for bit against the channels-last GEMMs over loop-built columns;
    the output is C-ordered NCHW, as ``ascontiguousarray(gemm + bias)`` is."""
    inputs, got = _conv_results(*shape)
    assert got[0].flags.c_contiguous
    expected = _loop_column_conv(*inputs)
    for name, g, e in zip(("out", "dW", "dx", "db"), got, expected):
        assert g.dtype == e.dtype, name
        assert g.tobytes() == np.ascontiguousarray(e).tobytes(), name


# desk at batch 8, then kernels whose (u, v) flip a square kernel would hide
_ORACLE_SHAPES = _DESK_8 + [
    ((2, 3, 5, 6), (4, 3, kh, kw)) for kh, kw in [(1, 1), (1, 3), (3, 1), (3, 5)]]


@pytest.mark.parametrize("shape", _ORACLE_SHAPES, ids=_shape_id)
def test_conv2d_matches_float64_direct_correlation(shape):
    inputs, got = _conv_results(*shape, dtype=np.float64)
    expected = _direct_conv(*inputs)
    for name, g, e in zip(("out", "dW", "dx", "db"), got, expected):
        np.testing.assert_allclose(g, e, rtol=0, atol=1e-12 * np.abs(e).max(), err_msg=name)


_POOL = [s for preset, batch in [("desk", 8), ("desk", 128), ("paper", 1)]
         for s in _shapes("avg_pool2x", preset, batch)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", _POOL, ids=lambda s: "n{}-c{}-{}x{}".format(*s[0]))
def test_avg_pool2x_equals_reshape_sum(shape, dtype):
    """Bit for bit the mean of each 2x2 block as a reshape's two-axis sum,
    on values from 1e-6 to 1e6 of both signs, with blocks of -0.0 and +0.0
    and blocks mixing them."""
    (x_shape,) = shape
    n, c, h, w = x_shape
    rng = np.random.default_rng(4)
    x = (rng.choice([-1.0, 1.0], x_shape) * 10.0 ** rng.uniform(-6, 6, x_shape)).astype(dtype)
    x[0, 0, :2, :2] = -0.0
    x[0, -1, :2, :2] = 0.0
    x[-1, 0, -2:, -2:] = [[-0.0, 0.0], [-0.0, -0.0]]
    got = ad.avg_pool2x(ad.Tensor(x)).data
    expected = x.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5)) * dtype(0.25)
    assert got.dtype == dtype and got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


def test_shape_spy_saw_both_presets():
    # an empty list would silently parametrize the tests above to a skip
    assert len(_DESK) > 10 and len(_PAPER) > 10 and len(_POOL) >= 4
    # the eval classifier's convs: the paper denoiser has no 3 -> 16 conv
    side = load_config("paper").model_config().image_side
    assert ((1, 3, side, side), (CONV_WIDTHS[0], 3, 3, 3)) in _PAPER
