"""The gather-index im2col: its definition, its cache, and conv2d through it.

conv2d's forward pass, dW (through the saved columns) and dx (through the
columns of the incoming gradient) all read ``_im2col``. The columns must
be the same array, bit for bit, as the transpose-copy construction they
replaced, so every GEMM input and every run digest stays as it was.
"""

import numpy as np
import pytest

from phoenix import autodiff as ad
from phoenix import unet
from phoenix.config import load_config


def _loop_im2col(a, ph, pw, kh, kw):
    """cols[(n,i,j),(c,u,v)] = xpad[n,c,i+u,j+v], written out as loops."""
    n, c, h, w = a.shape
    xpad = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    xpad[:, :, ph:ph + h, pw:pw + w] = a
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    cols = np.empty((n, ho, wo, c, kh, kw), dtype=a.dtype)
    for i in range(ho):
        for j in range(wo):
            for u in range(kh):
                for v in range(kw):
                    cols[:, i, j, :, u, v] = xpad[:, :, i + u, j + v]
    return cols.reshape(n * ho * wo, c * kh * kw), ho, wo


def _transpose_copy_im2col(a, ph, pw, kh, kw):
    """The construction the gather replaced: copy a 6-D window view."""
    ap = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    win = np.lib.stride_tricks.sliding_window_view(ap, (kh, kw), axis=(2, 3))
    n, c, ho, wo = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n * ho * wo, c * kh * kw), ho, wo


def _pads(kh, kw):
    """The same pad, which conv2d's forward and dx both pass, then no pad and
    the full pad: ``_im2col`` takes any pad, and its index arithmetic is
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
        np.testing.assert_array_equal(cols, ref)

    @pytest.mark.parametrize("kh, kw, ph, pw", _CASES)
    def test_non_contiguous_input(self, kh, kw, ph, pw):
        # dx passes the incoming gradient, which may be a strided view
        nhwc = np.random.default_rng(1).standard_normal((2, 5, 6, 3)).astype(np.float32)
        a = nhwc.transpose(0, 3, 1, 2)
        assert not a.flags.c_contiguous
        np.testing.assert_array_equal(ad._im2col(a, ph, pw, kh, kw)[0],
                                      _loop_im2col(a, ph, pw, kh, kw)[0])

    @pytest.mark.parametrize("kh, kw, ph, pw", _CASES)
    def test_batch_of_one(self, kh, kw, ph, pw):
        a = np.random.default_rng(2).standard_normal((1, 2, 4, 7)).astype(np.float32)
        np.testing.assert_array_equal(ad._im2col(a, ph, pw, kh, kw)[0],
                                      _loop_im2col(a, ph, pw, kh, kw)[0])

    def test_negative_zero_and_nan_copied_as_is(self):
        a = np.array([-0.0, np.nan, 1.5, -2.0], dtype=np.float32).reshape(1, 1, 2, 2)
        cols, _, _ = ad._im2col(a, 1, 1, 3, 3)
        ref, _, _ = _transpose_copy_im2col(a, 1, 1, 3, 3)
        assert cols.tobytes() == ref.tobytes()


class TestIndexCache:
    def test_second_call_reuses_the_index(self):
        a = np.zeros((2, 5, 7, 9), dtype=np.float32)
        ad._im2col(a, 1, 2, 3, 5)
        before = ad._gather_index.cache_info()
        ad._im2col(np.ones((4, 5, 7, 9), dtype=np.float64), 1, 2, 3, 5)
        after = ad._gather_index.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert ad._gather_index(5, 7, 9, 1, 2, 3, 5) is ad._gather_index(5, 7, 9, 1, 2, 3, 5)

    def test_index_is_read_only(self):
        index = ad._gather_index(2, 4, 4, 1, 1, 3, 3)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 1


def _conv_shapes(preset, batch):
    """(x shape, weight shape) of every conv in one denoiser pass."""
    config = load_config(preset).model_config()
    shapes = []
    original = ad.conv2d

    def spy(x, weight, bias):
        shapes.append((x.data.shape, weight.data.shape))
        return original(x, weight, bias)

    mp = pytest.MonkeyPatch()
    mp.setattr(ad, "conv2d", spy)
    try:
        model = unet.build_unet(config, 0)
        side, chans = config.image_side, config.image_channels
        unet.predict_noise(model, np.zeros((batch, chans, side, side), np.float32),
                           np.ones(batch, np.int64))
    finally:
        mp.undo()
    return list(dict.fromkeys(shapes))


def _conv_results(x_shape, w_shape):
    """conv2d's output and its three gradients. The upstream gradient
    arrives as a channel slice of a concat's gradient, a strided view as
    in the U-Net's decoder."""
    rng = np.random.default_rng(3)
    x = ad.Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    w = ad.Tensor(0.1 * rng.standard_normal(w_shape).astype(np.float32), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(w_shape[0]).astype(np.float32), requires_grad=True)
    out = ad.conv2d(x, w, b)
    other = ad.Tensor(np.zeros_like(out.data))
    joined = ad.concat([out, other], axis=1)
    target = ad.Tensor(rng.standard_normal(joined.data.shape).astype(np.float32))
    ad.backward(ad.mse_loss(joined, target))
    return out.data, w.grad, x.grad, b.grad


_DESK = _conv_shapes("desk", 8) + _conv_shapes("desk", 128)
_PAPER = _conv_shapes("paper", 1)


def _shape_id(shape):
    (n, c, h, w), (o, _, kh, kw) = shape
    return f"n{n}-c{c}-{h}x{w}-o{o}-k{kh}x{kw}-same"


@pytest.mark.parametrize("shape", _DESK + _PAPER, ids=_shape_id)
def test_conv2d_matches_transpose_copy_reference(shape, monkeypatch):
    got = _conv_results(*shape)
    monkeypatch.setattr(ad, "_im2col", _transpose_copy_im2col)
    expected = _conv_results(*shape)
    for name, g, e in zip(("out", "dW", "dx", "db"), got, expected):
        assert g.dtype == e.dtype, name
        np.testing.assert_array_equal(g, e, err_msg=name)


def test_shape_spy_saw_both_presets():
    # an empty list would silently parametrize the test above to a skip
    assert len(_DESK) > 10 and len(_PAPER) > 10
