"""Reverse-mode automatic differentiation over dense numpy arrays.

The engine is eager: every primitive computes its value immediately. A
result that depends on a leaf created with ``requires_grad=True`` also
keeps its parents and a backward closure, so the chain of such ``Tensor``
objects *is* the compute graph -- an acyclic DAG whose construction order
is a topological order. ``backward(loss)`` walks that order in reverse and
accumulates gradients into every grad-tracked leaf. A result with no
grad-tracked input keeps neither: the graph exists only under grad-tracked
leaves, so a forward-only pass keeps an activation only while its caller does.

Production code runs in float32. The ops are dtype-generic so the test
suite can re-run the same graphs in float64, where central finite
differences at h=1e-3 are meaningful; mixing dtypes inside one graph is
rejected.

Reductions rely on numpy's pairwise summation, which is a fixed order for
a given shape and dtype, so identical inputs give bitwise-identical
forward and backward results.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Sequence

import numpy as np


class ShapeMismatchError(ValueError):
    """Operands of a primitive have incompatible shapes."""


class NumericError(ArithmeticError):
    """A primitive produced non-finite values."""


class GraphUsageError(RuntimeError):
    """The autodiff API was used out of contract (e.g. non-scalar backward)."""


_ALLOWED_DTYPES = (np.float32, np.float64)


class Tensor:
    """A node in the compute graph: a dense array plus backward bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "op", "name", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str | None = None,
        *,
        op: str = "leaf",
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = op
        self.name = name
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.data.shape}, dtype={self.data.dtype})"

    # Operator sugar over the module-level primitives.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)


def _label(t: Tensor) -> str:
    return t.name if t.name else t.op


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by '{op}'")


def _same_dtype(op: str, *tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeMismatchError(
                f"'{op}' got mixed dtypes {dt} and {t.data.dtype} ({_label(t)})"
            )
    return dt


def _make(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result. It joins the graph, keeping ``parents`` and
    ``backward``, only when some parent requires grads; otherwise it is a
    parentless constant with no closure, which holds no input alive."""
    _check_finite(data, op)
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward)
    return Tensor(data, op=op)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def topo_order(output: Tensor) -> list[Tensor]:
    """Nodes of the graph under ``output``, parents before children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into ``grad`` of every grad-tracked leaf."""
    if output.data.size != 1:
        raise GraphUsageError(
            f"backward requires a scalar output, got shape {output.data.shape}"
        )
    if not output.requires_grad:
        raise GraphUsageError("backward called on a graph with no grad-tracked leaves")
    order = topo_order(output)
    output.grad = np.ones_like(output.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting; backward sums over broadcast axes)

def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcastable(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"'{op}' cannot broadcast {a.data.shape} ({_label(a)}) "
            f"with {b.data.shape} ({_label(b)})"
        ) from None


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    _broadcastable("add", a, b)
    out = a.data + b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out, "add", (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("sub", a, b)
    _broadcastable("sub", a, b)
    out = a.data - b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out, "sub", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("mul", a, b)
    _broadcastable("mul", a, b)
    out = a.data * b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, "mul", (a, b), bw)


def scale(a: Tensor, factor: float) -> Tensor:
    s = a.data.dtype.type(factor)
    out = a.data * s

    def bw(g):
        _accumulate(a, g * s)

    return _make(out, "scale", (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"'matmul' needs (n,k)@(k,m), got {a.data.shape} ({_label(a)}) "
            f"and {b.data.shape} ({_label(b)})"
        )
    out = a.data @ b.data

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(out, "matmul", (a, b), bw)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeMismatchError(
            f"'reshape' cannot view {a.data.shape} ({_label(a)}) as {shape}"
        ) from None

    def bw(g):
        _accumulate(a, g.reshape(a.data.shape))

    return _make(out, "reshape", (a,), bw)


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeMismatchError("'concat' needs at least one input")
    _same_dtype("concat", *parts)
    ndim = parts[0].data.ndim
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise ShapeMismatchError(
                f"'concat' rank mismatch: {parts[0].data.shape} vs {p.data.shape}"
            )
        for ax in range(ndim):
            if ax != axis and p.data.shape[ax] != parts[0].data.shape[ax]:
                raise ShapeMismatchError(
                    f"'concat' off-axis mismatch at axis {ax}: "
                    f"{parts[0].data.shape} vs {p.data.shape}"
                )
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * ndim
            sl[axis] = slice(offset, offset + size)
            _accumulate(p, g[tuple(sl)])
            offset += size

    return _make(out, "concat", tuple(parts), bw)


# ---------------------------------------------------------------------------
# activations and normalization

def _sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow for any finite x
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def silu(a: Tensor) -> Tensor:
    sig = _sigmoid(a.data)
    out = a.data * sig

    def bw(g):
        _accumulate(a, g * (sig * (1.0 + a.data * (1.0 - sig))))

    return _make(out, "silu", (a,), bw)


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int,
               eps: float = 1e-5) -> Tensor:
    """Normalize (N,C,H,W) per sample over channel groups, then scale/shift."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"'group_norm' expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if groups < 1 or c % groups != 0:
        raise ShapeMismatchError(f"'group_norm' groups={groups} does not divide C={c}")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeMismatchError(
            f"'group_norm' scale/shift must have shape ({c},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    _same_dtype("group_norm", x, gamma, beta)
    dt = x.data.dtype
    xg = x.data.reshape(n, groups, -1)
    centred = xg - xg.mean(axis=2, keepdims=True)
    var = (centred * centred).mean(axis=2, keepdims=True)  # np.var's own arithmetic
    inv_std = 1.0 / np.sqrt(var + dt.type(eps))
    centred *= inv_std
    xhat = centred.reshape(n, c, h, w)
    out = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]

    def bw(g):
        _accumulate(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        _accumulate(beta, g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx_hat = (g * gamma.data[None, :, None, None]).reshape(n, groups, -1)
            xh = xhat.reshape(n, groups, -1)
            m1 = gx_hat.mean(axis=2, keepdims=True)
            m2 = (gx_hat * xh).mean(axis=2, keepdims=True)
            dx = (gx_hat - m1 - xh * m2) * inv_std
            _accumulate(x, dx.reshape(n, c, h, w))

    return _make(out, "group_norm", (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# spatial ops (NCHW layout throughout)

@cache
def _gather_index(c: int, h: int, w: int, ph: int, pw: int, kh: int, kw: int) -> np.ndarray:
    """Flat positions in one (C, H+2ph, W+2pw) padded image, in (i,j,c,u,v)
    order: entry (i,j,c,u,v) is pixel (c, i+u, j+v). Built once per shape
    and read-only, since every later call shares it. The cache keeps one
    entry per conv shape the process meets: about 0.5 MB for the desk
    model, 40 MB for the paper model."""
    hp, wp = h + 2 * ph, w + 2 * pw
    i, j, ch, u, v = np.ix_(np.arange(hp - kh + 1), np.arange(wp - kw + 1),
                            np.arange(c), np.arange(kh), np.arange(kw))
    index = (ch * (hp * wp) + (i + u) * wp + (j + v)).ravel()
    index.flags.writeable = False
    return index


def _im2col(a: np.ndarray, ph: int, pw: int, kh: int, kw: int):
    """Zero-pad (N,C,H,W) by (ph,pw); return (cols, Ho, Wo), where cols is
    (N*Ho*Wo, C*kh*kw) with cols[(n,i,j),(c,u,v)] = padded[n,c,i+u,j+v].

    One ``np.take`` gathers every image of the batch through the shape's
    cached index, in place of copying a 6-D window view whose innermost run
    is only kw elements long; the columns are the same bit for bit. ``a``
    may be non-contiguous (dx passes the incoming gradient).
    """
    n, c, h, w = a.shape
    if ph or pw:
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = a
    else:
        padded = a
    ho, wo = h + 2 * ph - kh + 1, w + 2 * pw - kw + 1
    cols = np.take(padded.reshape(n, -1), _gather_index(c, h, w, ph, pw, kh, kw), axis=1)
    return cols.reshape(n * ho * wo, c * kh * kw), ho, wo


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           padding: str = "same") -> Tensor:
    """2-D cross-correlation, stride 1.

    Shapes: x (N,C,H,W), weight (O,C,kh,kw), bias (O,). Output spatial size
    is H for 'same' (odd kernels only) and H-kh+1 for 'valid'.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeMismatchError(
            f"'conv2d' expects NCHW input and OIKK weight, got "
            f"{x.data.shape} and {weight.data.shape}"
        )
    n, c, h, w = x.data.shape
    o, ci, kh, kw = weight.data.shape
    if ci != c:
        raise ShapeMismatchError(
            f"'conv2d' channel mismatch: input C={c}, weight expects {ci}"
        )
    if bias is not None and bias.data.shape != (o,):
        raise ShapeMismatchError(f"'conv2d' bias must have shape ({o},), got {bias.data.shape}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    _same_dtype("conv2d", *inputs)
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeMismatchError("'conv2d' same padding requires odd kernels")
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    elif padding == "valid":
        ph = pw = 0
    else:
        raise ShapeMismatchError(f"'conv2d' unknown padding '{padding}'")
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ShapeMismatchError(
            f"'conv2d' kernel ({kh},{kw}) larger than padded input ({h},{w})"
        )
    # (N*Ho*Wo, C*kh*kw) @ (C*kh*kw, O): one BLAS call, fixed reduction order.
    cols, ho, wo = _im2col(x.data, ph, pw, kh, kw)
    wmat = weight.data.reshape(o, c * kh * kw)
    out = (cols @ wmat.T).reshape(n, ho, wo, o).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data[None, :, None, None]

    def bw(g):
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        gm = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, o)
        if weight.requires_grad:
            _accumulate(weight, (gm.T @ cols).reshape(o, c, kh, kw))
        if x.requires_grad:
            # dx: g padded back to (H,W), correlated with the kernel
            # rotated 180 degrees with its in/out channels swapped
            gcols, _, _ = _im2col(g, kh - 1 - ph, kw - 1 - pw, kh, kw)
            wrot = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * kh * kw)
            _accumulate(x, (gcols @ wrot.T).reshape(n, h, w, c).transpose(0, 3, 1, 2))

    return _make(np.ascontiguousarray(out), "conv2d", inputs, bw)


def upsample_nearest2x(x: Tensor) -> Tensor:
    """Repeat each pixel of (N,C,H,W) into a 2x2 block."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"'upsample_nearest2x' expects NCHW, got {x.data.shape}")
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    n, c, h, w = x.data.shape

    def bw(g):
        _accumulate(x, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return _make(out, "upsample_nearest2x", (x,), bw)


def avg_pool2x(x: Tensor) -> Tensor:
    """Average non-overlapping 2x2 blocks of (N,C,H,W); H and W must be even."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"'avg_pool2x' expects NCHW, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"'avg_pool2x' needs even spatial dims, got ({h},{w})")
    quarter = x.data.dtype.type(0.25)
    out = x.data.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5)) * quarter

    def bw(g):
        _accumulate(x, np.repeat(np.repeat(g * quarter, 2, axis=2), 2, axis=3))

    return _make(out, "avg_pool2x", (x,), bw)


# ---------------------------------------------------------------------------
# reductions and losses

def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of squared elementwise differences, as a scalar node."""
    _same_dtype("mse_loss", pred, target)
    if pred.data.shape != target.data.shape:
        raise ShapeMismatchError(
            f"'mse_loss' shape mismatch: {pred.data.shape} vs {target.data.shape}"
        )
    diff = pred.data - target.data
    out = np.asarray((diff * diff).mean(), dtype=pred.data.dtype)
    inv_n = pred.data.dtype.type(2.0 / diff.size)

    def bw(g):
        gd = g * inv_n * diff
        _accumulate(pred, gd)
        _accumulate(target, -gd)

    return _make(out, "mse_loss", (pred, target), bw)


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax of a 2-D (N, K) tensor."""
    if a.data.ndim != 2:
        raise ShapeMismatchError(f"'log_softmax' expects (N,K), got {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - lse

    def bw(g):
        _accumulate(a, g - np.exp(out) * g.sum(axis=1, keepdims=True))

    return _make(out, "log_softmax", (a,), bw)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer labels under (N,K) log-probs."""
    labels = np.asarray(labels)
    n, k = log_probs.data.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(
            f"'nll_loss' labels must have shape ({n},), got {labels.shape}"
        )
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeMismatchError(f"'nll_loss' labels must lie in [0, {k})")
    rows = np.arange(n)
    out = np.asarray(-log_probs.data[rows, labels].mean(), dtype=log_probs.data.dtype)
    inv_n = log_probs.data.dtype.type(1.0 / n)

    def bw(g):
        gl = np.zeros_like(log_probs.data)
        gl[rows, labels] = -g * inv_n
        _accumulate(log_probs, gl)

    return _make(out, "nll_loss", (log_probs,), bw)
