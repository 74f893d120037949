"""Span tracer that wraps phoenix's public functions from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
at every module attribute through which the package looks it up (for
example ``phoenix.federation.write_checkpoint``, which federation imports
by name), and ``uninstall()`` puts every original back. The wrappers only
time calls and read shapes, so a traced run computes the same bits as an
untraced one.

Spans hold a name, start, end, parent and the run id, and stay in memory
until ``write()``. Autodiff primitive spans are aggregated per
(primitive, direction, input shape) to keep the trace small; the backward
time of a primitive is taken by wrapping the ``_backward`` closure of the
tensor it returns. Self time is a span's duration minus the time its child
spans cover. The tracer assumes one thread runs the traced code, which
holds for the program's default worker count of 1.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

# The layers of the package, by module; partition and datasets are both
# reported, as two small layers of the data path.
LAYERS = ("autodiff", "unet", "diffusion", "optim", "seeding", "federation",
          "metrics", "classifier", "formats", "partition", "datasets")

# topo_order runs only inside backward; leaving it unwrapped keeps the
# graph walk in autodiff.backward's self time.
UNWRAPPED = {"phoenix.autodiff.topo_order"}

# autodiff functions that are not primitives (they do not return a Tensor).
AUTODIFF_NON_PRIMITIVES = {"backward", "topo_order"}

# Primitives reported on their own; every other primitive is "other".
NAMED_PRIMITIVES = ("conv2d", "silu", "group_norm")

SETUP, RUN, CHECK = "setup", "run", "check"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = SETUP
        self._perf = time.perf_counter
        self._stack: list[list] = []       # frames: [span_id, start, child_time]
        self._next_id = 1
        self.spans: list[tuple] = []        # (id, parent, name, phase, start, end, self)
        self.coarse: dict[tuple, list] = {}  # (phase, name) -> [calls, total, self]
        self.prims: dict[tuple, list] = {}   # (phase, name, dir, shape) -> [calls, total]
        self.top_level: list[tuple] = []     # (phase, start, end) of outermost spans
        self.conv_gflop = 0.0
        self.conv_cols_mb = 0.0
        self.graph_mb: dict[tuple, float] = {}
        self.denoise_evals = 0
        self.train_images = 0
        self.fedavg_mb = 0.0
        self.updates_aggregated = 0
        self.checkpoint_mb = 0.0
        self.round_span_ids: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer module, at every name."""
        import phoenix  # noqa: F401  (loads the package so sys.modules holds it)
        from phoenix import autodiff, metrics

        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules[f"phoenix.{layer}"]
            for name, obj in vars(mod).items():
                qual = f"phoenix.{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                if mod is autodiff and name not in AUTODIFF_NON_PRIMITIVES:
                    wrapper = self._wrap_primitive(name, obj)
                else:
                    wrapper = self._wrap_span(f"{layer}.{name}", obj)
                originals[id(obj)] = (obj, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phoenix" or mod_name.startswith("phoenix.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
        build = metrics.MetricsContext.__dict__["build"]
        metrics.MetricsContext.build = classmethod(
            self._wrap_span("metrics.MetricsContext.build", build.__func__,
                            after=self._after_context_build))
        self._patched.append((metrics.MetricsContext, "build", build))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- span bookkeeping ---------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, self._perf(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> tuple[float, float, float]:
        end = self._perf()
        self._stack.pop()
        dur = end - frame[1]
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level.append((self.phase, frame[1], end))
        return end, dur, dur - frame[2]

    def _wrap_span(self, name: str, fn, after=None):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, fn, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else 0
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, dur, self_time = tracer._close(frame)
                tracer.spans.append((frame[0], parent, name, tracer.phase,
                                     frame[1], end, self_time))
                agg = tracer.coarse.setdefault((tracer.phase, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_time
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_primitive(self, name: str, fn):
        tracer = self
        is_conv = name == "conv2d"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                _, dur, _ = tracer._close(frame)
            first = args[0] if args else next(iter(kwargs.values()))
            shape = (tuple(t.data.shape for t in first) if isinstance(first, (list, tuple))
                     else first.data.shape)
            tracer._add_primitive(name, "fwd", shape, dur)
            bwd_gflop = 0.0
            if is_conv:
                bwd_gflop = tracer._count_conv(args, out)
            backward = out._backward
            if backward is not None:
                out._backward = tracer._timed_backward(name, shape, backward, bwd_gflop)
            return out

        return wrapper

    def _timed_backward(self, name, shape, backward, gflop):
        tracer = self

        def timed(g):
            frame = tracer._open()
            try:
                backward(g)
            finally:
                _, dur, _ = tracer._close(frame)
            tracer._add_primitive(name, "bwd", shape, dur)
            tracer.conv_gflop += gflop

        return timed

    def _add_primitive(self, name: str, direction: str, shape: tuple, dur: float) -> None:
        agg = self.prims.get((self.phase, name, direction, shape))
        if agg is None:
            agg = self.prims[(self.phase, name, direction, shape)] = [0, 0.0]
        agg[0] += 1
        agg[1] += dur

    def _count_conv(self, args, out) -> float:
        """Add the forward flops and im2col bytes; return the backward gflop."""
        x, weight = args[0], args[1]
        n, c = x.data.shape[:2]
        o, _, kh, kw = weight.data.shape
        ho, wo = out.data.shape[2:]
        rows, depth = n * ho * wo, c * kh * kw
        gflop = 2.0 * rows * depth * o / 1e9
        self.conv_gflop += gflop
        self.conv_cols_mb += rows * depth * x.data.dtype.itemsize / 1e6
        return gflop * (int(weight.requires_grad) + int(x.requires_grad))

    def _after_context_build(self, ctx) -> None:
        ctx.extract = self._wrap_span("metrics.extract", ctx.extract)

    # -- results ------------------------------------------------------------

    def _coarse(self, name: str) -> list:
        """[calls, total, self time] of a coarse span name, over all phases."""
        calls, total, self_time = 0, 0.0, 0.0
        for (_, n), agg in self.coarse.items():
            if n == name:
                calls += agg[0]
                total += agg[1]
                self_time += agg[2]
        return [calls, total, self_time]

    def _prim(self, names, direction: str) -> list:
        """[calls, total] of primitives in ``names`` in one direction, all phases."""
        calls, total = 0, 0.0
        for (_, n, d, _), agg in self.prims.items():
            if n in names and d == direction:
                calls += agg[0]
                total += agg[1]
        return [calls, total]

    def layer_self(self) -> dict[str, float]:
        """Self time per layer over the run window (round 1 to the final artifact)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (phase, name), agg in self.coarse.items():
            if phase == RUN:
                out[name.split(".")[0]] += agg[2]
        for (phase, _, _, _), agg in self.prims.items():
            if phase == RUN:
                out["autodiff"] += agg[1]
        return out

    def layer_inclusive(self, layer: str) -> float:
        """Time covered by the layer's outermost spans (all phases)."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if not span[2].startswith(layer + "."):
                continue
            parent = by_id.get(span[1])
            if parent is None or not parent[2].startswith(layer + "."):
                total += span[5] - span[4]
        return total

    def covered(self) -> float:
        """Time of the run window that some layer's span covers."""
        return sum(end - start for p, start, end in self.top_level if p == RUN)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics that the spans alone determine."""
        other = {name for (_, name, _, _) in self.prims} - set(NAMED_PRIMITIVES)
        conv_f = self._prim({"conv2d"}, "fwd")
        conv_b = self._prim({"conv2d"}, "bwd")
        gen = self._coarse("diffusion.generate")
        local = self._coarse("federation.local_train")
        run_fed = self._coarse("federation.run_federation")
        m = {
            "autodiff.conv2d.fwd_s": conv_f[1],
            "autodiff.conv2d.bwd_s": conv_b[1],
            "autodiff.conv2d.calls": conv_f[0],
            "autodiff.conv2d.gflop": self.conv_gflop,
            "autodiff.conv2d.gflop_per_s": _ratio(self.conv_gflop, conv_f[1] + conv_b[1]),
            "autodiff.conv2d.cols_mb": self.conv_cols_mb,
            "autodiff.silu.fwd_s": self._prim({"silu"}, "fwd")[1],
            "autodiff.silu.bwd_s": self._prim({"silu"}, "bwd")[1],
            "autodiff.group_norm.fwd_s": self._prim({"group_norm"}, "fwd")[1],
            "autodiff.group_norm.bwd_s": self._prim({"group_norm"}, "bwd")[1],
            "autodiff.other.fwd_s": self._prim(other, "fwd")[1],
            "autodiff.other.bwd_s": self._prim(other, "bwd")[1],
            "autodiff.backward.self_s": self._coarse("autodiff.backward")[2],
            "autodiff.graph_mb": max(self.graph_mb.values(), default=0.0),
            "unet.apply_denoiser.calls": self._coarse("unet.apply_denoiser")[0],
            "unet.apply_denoiser.self_s": self._coarse("unet.apply_denoiser")[2],
            "diffusion.training_loss.self_s": self._coarse("diffusion.training_loss")[2],
            "diffusion.generate.calls": gen[0],
            "diffusion.generate.s": gen[1],
            "diffusion.generate.self_s": gen[2],
            "diffusion.denoise_evals": self.denoise_evals,
            "diffusion.denoise_evals_per_s": _ratio(self.denoise_evals, gen[1]),
            "optim.adam_step.calls": self._coarse("optim.adam_step")[0],
            "optim.adam_step.s": self._coarse("optim.adam_step")[1],
            "seeding.derive_rng.calls": self._coarse("seeding.derive_rng")[0],
            "seeding.derive_rng.s": self._coarse("seeding.derive_rng")[1],
            "federation.local_train.calls": local[0],
            "federation.local_train.s": local[1],
            "federation.train_samples_per_s": _ratio(self.train_images, local[1]),
            "federation.evaluate_client.calls": self._coarse("federation.evaluate_client")[0],
            "federation.evaluate_client.s": self._coarse("federation.evaluate_client")[1],
            "federation.fedavg.s": self._coarse("federation.fedavg")[1],
            "federation.fedavg.mb": self.fedavg_mb,
            "federation.self_s": run_fed[2],
            "federation.round_s": self.median_round_s(),
            "metrics.extract.calls": self._coarse("metrics.extract")[0],
            "metrics.extract.s": self._coarse("metrics.extract")[1],
            "metrics.knn_precision_recall.s": self._coarse("metrics.knn_precision_recall")[1],
            "metrics.compute_report.s": self._coarse("metrics.compute_report")[1],
            "metrics.context_builds": self._coarse("metrics.MetricsContext.build")[0],
            "classifier.train_eval_classifier.s":
                self._coarse("classifier.train_eval_classifier")[1],
            "formats.write_checkpoint.calls": self._coarse("formats.write_checkpoint")[0],
            "formats.write_checkpoint.s": self._coarse("formats.write_checkpoint")[1],
            "formats.write_checkpoint.mb": self.checkpoint_mb,
            "formats.read_checkpoint.s": self._coarse("formats.read_checkpoint")[1],
            "partition.s": self.layer_inclusive("partition"),
            "datasets.load_s": self.layer_inclusive("datasets"),
        }
        for layer, value in self.layer_self().items():
            m[f"layer.{layer}.self_s"] = value
        return m

    def median_round_s(self) -> float:
        """Median round length; a round ends with its global checkpoint write."""
        starts = [s[4] for s in self.spans if s[2] == "federation.run_federation"]
        round_ids = set(self.round_span_ids)
        ends = {s[0]: s[5] for s in self.spans if s[0] in round_ids}
        if not starts or not ends:
            return 0.0
        marks = [starts[0]] + [ends[i] for i in self.round_span_ids if i in ends]
        return statistics.median(b - a for a, b in zip(marks, marks[1:]))

    def write(self, path: Path) -> None:
        """Write the spans and primitive aggregates as one JSON document."""
        doc = {
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "name", "phase", "start", "end", "self_s"],
            "spans": self.spans,
            "primitive_fields": ["phase", "primitive", "direction", "input_shape",
                                 "calls", "total_s"],
            "primitives": [[p, n, d, s, agg[0], agg[1]]
                           for (p, n, d, s), agg in self.prims.items()],
        }
        path.write_text(json.dumps(doc))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


_SIGNATURES: dict = {}


def _arg(fn, args, kwargs, name):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    return sig.bind(*args, **kwargs).arguments[name]


# Hooks run before a coarse span opens, so their cost stays out of the span.

def _hook_generate(tracer, fn, args, kwargs):
    steps = _arg(fn, args, kwargs, "schedule").steps
    tracer.denoise_evals += _arg(fn, args, kwargs, "count") * steps


def _hook_training_loss(tracer, fn, args, kwargs):
    tracer.train_images += len(_arg(fn, args, kwargs, "x0"))


def _hook_fedavg(tracer, fn, args, kwargs):
    updates = _arg(fn, args, kwargs, "updates")
    tracer.updates_aggregated += len(updates)
    tracer.fedavg_mb += sum(a.nbytes for u in updates for a in u.params.values()) / 1e6


def _hook_write_checkpoint(tracer, fn, args, kwargs):
    tracer.checkpoint_mb += sum(a.nbytes for a in _arg(fn, args, kwargs, "params").values()) / 1e6
    if Path(_arg(fn, args, kwargs, "path")).name.startswith("round_"):
        tracer.round_span_ids.append(tracer._next_id)  # the span about to open


def _hook_backward(tracer, fn, args, kwargs):
    """Tensor bytes reachable from the loss, once per distinct graph signature."""
    from phoenix.autodiff import topo_order  # never wrapped, see UNWRAPPED

    output = _arg(fn, args, kwargs, "output")
    key = tuple(p.data.shape for p in output._parents)
    if key not in tracer.graph_mb:
        tracer.graph_mb[key] = sum(t.data.nbytes for t in topo_order(output)) / 1e6


_HOOKS = {
    "diffusion.generate": _hook_generate,
    "diffusion.training_loss": _hook_training_loss,
    "federation.fedavg": _hook_fedavg,
    "formats.write_checkpoint": _hook_write_checkpoint,
    "autodiff.backward": _hook_backward,
}
