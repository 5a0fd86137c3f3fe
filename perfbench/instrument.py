"""Instrumentation the benchmark installs around dmlseg's public API.

Every run takes a few timestamps: the end of each training step (through
`sgd_step` as `train` calls it) and the start of each loss evaluation inside
`grad_check` (through `forward`).  It can also keep the label maps that
`evaluate` hands to `metrics.accumulate`, so that the output checks recount
them.  That is one clock read per step or evaluation.

A traced run adds spans at every layer boundary: the ops as `model` and
`losses` import them, `ConvLayer.__call__`, the backward closures handed to
`Graph.record`, `Graph.backward`, `sgd_step`, the `gt_gen`, `metrics` and
`checkpoint` functions, and `Corpus.load_*`.  Spans are summed in memory per
name; `layer_metrics` turns the sums into the per-layer metrics.

Everything is patched on module attributes and restored when the
`ExitStack` given to `install` closes.
"""

from __future__ import annotations

import importlib
import os
import time
import weakref
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext

import dmlseg.checkpoint as ckpt_mod
import dmlseg.gt_gen as gt_mod
import dmlseg.losses as loss_mod
import dmlseg.model as model_mod
import dmlseg.synth_data as sd_mod
import dmlseg.tensor as tensor_mod

from costmodel import cost_table

# `dmlseg.train` the attribute is the train() function the package re-exports
train_mod = importlib.import_module("dmlseg.train")
clock = time.perf_counter

OPS = ("conv2d", "maxpool2d", "upsample_nearest", "relu", "elementwise_sum", "shift")
# the input image needs no gradient, so nothing upstream of it is recorded
NO_BACKWARD = ("center", "shift")
LOSSES = ("multilabel_nll", "softmax_nll", "objective")


def _patch(stack: ExitStack, owner, attr: str, make) -> None:
    orig = getattr(owner, attr)
    setattr(owner, attr, make(orig))
    stack.callback(setattr, owner, attr, orig)


class Instruments:
    def __init__(self, traced: bool):
        self.traced = traced
        self.step_ends: list[list[float]] = []  # one list per train() call
        self.eval_starts: list[list[float]] = []  # one list per grad_check() call
        self.scored: list[tuple] = []  # (pred, gt) given to metrics.accumulate
        self.capture_scored = False
        self._in_grad_check = False
        # traced state
        self.total: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.flops = 0
        self.ctx: str | None = None  # span prefix backward closures are charged to
        self.op: str | None = None
        # the next closure recorded is the first of a layer or loss call, so
        # it counts that call once for the per-call backward figure
        self._fresh = False
        self._names: dict[int, str] = {}
        self._macs: dict[str, int] = {}
        self._pool_j = self._up_j = 0
        self._models = weakref.WeakKeyDictionary()
        self._snap: dict[str, float] | None = None
        self.step_sum: defaultdict[str, float] = defaultdict(float)
        self.step_time = 0.0
        self.step_count = 0

    # --- span helpers -----------------------------------------------------

    def add(self, key: str, dt: float, n: int = 1) -> None:
        self.total[key] += dt
        self.calls[key] += n

    def span(self, key: str):
        """Time a block of the benchmark's own code; free when untraced."""
        return self._span(key) if self.traced else nullcontext()

    @contextmanager
    def _span(self, key: str):
        t = clock()
        try:
            yield
        finally:
            self.add(key, clock() - t)

    def _timed(self, key: str, ctx: str | None = None):
        """Wrapper factory: time every call under `key`; recorded backward
        closures are charged to `ctx` while it runs."""
        def make(orig):
            def wrapped(*args, **kwargs):
                prev_ctx, prev_op = self.ctx, self.op
                if ctx is not None:
                    self.ctx, self.op, self._fresh = ctx, None, True
                t = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.add(key, clock() - t)
                    self.ctx, self.op = prev_ctx, prev_op
            return wrapped
        return make

    def _op(self, name: str, layer=None):
        """Wrapper factory for an op; `layer` names the describe layer the
        call is, for ops that are a layer of their own (center, pool, up, fuse)."""
        def make(orig):
            def wrapped(*args, **kwargs):
                prev_ctx, prev_op = self.ctx, self.op
                self.op = name
                if layer is not None:
                    self.ctx, self._fresh = f"model.{layer()}", True
                if name == "conv2d":
                    self.flops += 2 * self._macs[self.ctx[6:]] * args[0].shape[0]
                t = clock()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = clock() - t
                    self.add(f"ops.{name}.fwd", dt)
                    if layer is not None:
                        self.add(f"{self.ctx}.fwd", dt)
                    self.ctx, self.op = prev_ctx, prev_op
            return wrapped
        return make

    def _bind(self, model) -> None:
        """Map the layers of the model about to run to their describe names."""
        if model not in self._models:
            names = {id(layer): f"low.{i}" for i, layer in enumerate(model.low)}
            names.update({id(layer): f"seg.{i}" for i, layer in enumerate(model.seg)})
            names[id(model.seg_proj)] = "seg.proj"
            for j, block in enumerate(model.dml, start=1):
                names.update({id(layer): f"dml{j}.stage{i}"
                              for i, layer in enumerate(block.stage)})
                names[id(block.proj)] = f"dml{j}.proj"
                names[id(block.adapt)] = f"dml{j}.adapt"
            macs = {row.name: row.macs for row in cost_table(model_mod.describe(model))}
            self._models[model] = (names, macs)
        self._names, self._macs = self._models[model]
        self._pool_j = self._up_j = 0

    def _next_pool(self) -> str:
        self._pool_j += 1
        return f"dml{self._pool_j}.pool"

    def _next_up(self) -> str:
        self._up_j += 1
        return f"dml{self._up_j}.up"

    def _step_end(self, now: float) -> None:
        ends = self.step_ends[-1]
        if ends:
            self.step_time += now - ends[-1]
            self.step_count += 1
        ends.append(now)
        if self.traced:
            snap = dict(self.total)
            if self._snap is not None:
                for k, v in snap.items():
                    self.step_sum[k] += v - self._snap.get(k, 0.0)
            self._snap = snap

    # --- installation -----------------------------------------------------

    def install(self, stack: ExitStack) -> None:
        inst = self

        def train_make(orig):
            def train(*args, **kwargs):
                inst.step_ends.append([])
                inst._snap = None
                return orig(*args, **kwargs)
            return train

        def sgd_make(orig):
            def sgd_step(*args, **kwargs):
                t = clock()
                orig(*args, **kwargs)
                now = clock()
                if inst.traced:
                    inst.add("optim.sgd_step", now - t)
                inst._step_end(now)
            return sgd_step

        def grad_check_make(orig):
            def grad_check(*args, **kwargs):
                inst._in_grad_check = True
                inst.eval_starts.append([])
                try:
                    return orig(*args, **kwargs)
                finally:
                    inst._in_grad_check = False
            return grad_check

        def forward_make(orig):
            def forward(model, image, trace=None):
                if inst._in_grad_check:
                    inst.eval_starts[-1].append(clock())
                if not inst.traced:
                    return orig(model, image, trace)
                inst._bind(model)
                t = clock()
                try:
                    return orig(model, image, trace)
                finally:
                    inst.add("train.forward", clock() - t)
            return forward

        def accumulate_make(orig):
            def accumulate(pred, gt, report):
                if inst.capture_scored:
                    inst.scored.append((pred, gt))
                if not inst.traced:
                    return orig(pred, gt, report)
                t = clock()
                try:
                    return orig(pred, gt, report)
                finally:
                    inst.add("metrics.accumulate", clock() - t)
            return accumulate

        _patch(stack, train_mod, "train", train_make)
        _patch(stack, train_mod, "sgd_step", sgd_make)
        _patch(stack, train_mod, "grad_check", grad_check_make)
        _patch(stack, train_mod, "forward", forward_make)
        _patch(stack, model_mod, "forward", forward_make)
        _patch(stack, train_mod, "accumulate", accumulate_make)
        if not self.traced:
            return

        for name in ("conv2d", "relu"):
            _patch(stack, model_mod, name, self._op(name))
        _patch(stack, model_mod, "maxpool2d", self._op("maxpool2d", self._next_pool))
        _patch(stack, model_mod, "upsample_nearest", self._op("upsample_nearest", self._next_up))
        _patch(stack, model_mod, "elementwise_sum", self._op("elementwise_sum", lambda: "fuse"))
        _patch(stack, model_mod, "shift", self._op("shift", lambda: "center"))
        _patch(stack, loss_mod, "elementwise_sum", self._op("elementwise_sum"))

        def conv_call_make(orig):
            def __call__(layer, x):
                prev = inst.ctx
                inst.ctx, inst._fresh = f"model.{inst._names[id(layer)]}", True
                t = clock()
                try:
                    return orig(layer, x)
                finally:
                    inst.add(f"{inst.ctx}.fwd", clock() - t)
                    inst.ctx = prev
            return __call__

        def record_make(orig):
            def record(graph, inputs, output, backward_fn):
                ctx, op, first = inst.ctx, inst.op, inst._fresh
                inst._fresh = False

                def timed_backward(g):
                    t = clock()
                    backward_fn(g)
                    dt = clock() - t
                    if ctx is not None:
                        inst.add(f"{ctx}.bwd", dt, int(first))
                    if op is not None:
                        inst.add(f"ops.{op}.bwd", dt)
                orig(graph, inputs, output, timed_backward)
            return record

        def backward_make(orig):
            def backward(graph, loss):
                inst.total["tensor.tape_nodes"] += len(graph.nodes)
                inst.total["tensor.tape_bytes"] += sum(n.output.data.nbytes for n in graph.nodes)
                t = clock()
                try:
                    return orig(graph, loss)
                finally:
                    inst.add("tensor.backward", clock() - t)
            return backward

        def save_model_make(orig):
            def save_model_checkpoint(path, model):
                t = clock()
                orig(path, model)
                inst.add("checkpoint.save_model", clock() - t)
                inst.total["checkpoint.model_bytes"] += os.path.getsize(path)
            return save_model_checkpoint

        _patch(stack, model_mod.ConvLayer, "__call__", conv_call_make)
        _patch(stack, tensor_mod.Graph, "record", record_make)
        _patch(stack, tensor_mod.Graph, "backward", backward_make)
        for name in LOSSES[:2]:
            _patch(stack, train_mod, name, self._timed(f"losses.{name}.fwd", f"losses.{name}"))
        _patch(stack, train_mod, "total_objective",
               self._timed("losses.objective.fwd", "losses.objective"))
        _patch(stack, train_mod, "save_model_checkpoint", save_model_make)
        _patch(stack, ckpt_mod, "load_model_checkpoint", self._timed("checkpoint.load_model"))
        _patch(stack, ckpt_mod, "save_gt_cache", self._timed("checkpoint.save_gt_cache"))
        _patch(stack, ckpt_mod, "load_gt_cache", self._timed("checkpoint.load_gt_cache"))
        _patch(stack, train_mod, "downsample_mask", self._timed("gt_gen.downsample_mask"))
        _patch(stack, train_mod, "multilabel_from_grid_mask", self._timed("gt_gen.masks"))
        _patch(stack, gt_mod, "dilate_window", self._timed("gt_gen.dilate_window"))
        _patch(stack, sd_mod.Corpus, "load_image", self._timed("synth_data.load_image"))
        _patch(stack, sd_mod.Corpus, "load_mask", self._timed("synth_data.load_mask"))
        _patch(stack, sd_mod, "write_corpus", self._timed("synth_data.write_corpus"))
        _patch(stack, sd_mod, "read_corpus", self._timed("synth_data.read_corpus"))

    # --- results ----------------------------------------------------------

    def step_samples_ms(self) -> list[float]:
        """Durations of every training step but the first of each train()
        call, which also pays for loading the split and building the model."""
        return [1000.0 * (b - a) for ends in self.step_ends for a, b in zip(ends, ends[1:])]

    def eval_samples_ms(self) -> list[float]:
        """Time from one grad-check loss evaluation to the next."""
        return [1000.0 * (b - a) for starts in self.eval_starts
                for a, b in zip(starts, starts[1:])]

    def evaluations(self) -> int:
        return sum(len(starts) for starts in self.eval_starts)

    def _per_call_ms(self, key: str, calls_key: str | None = None) -> float:
        n = self.calls[calls_key or key]
        return 1000.0 * self.total[key] / n if n else 0.0

    def step_accounting(self) -> dict[str, float]:
        """Mean ms per counted training step: the whole step, the loop's own
        code outside every span, and what no named layer covers (forward
        glue between layers and the tape walk itself)."""
        s = self.step_sum
        n = max(self.step_count, 1)
        top = sum(s[k] for k in ("train.forward", "losses.multilabel_nll.fwd",
                                 "losses.softmax_nll.fwd", "losses.objective.fwd",
                                 "tensor.backward", "optim.sgd_step", "checkpoint.save_model"))
        other = self.step_time - top
        named = other + sum(v for k, v in s.items()
                            if k.startswith(("model.", "losses.")))
        named += s["optim.sgd_step"] + s["checkpoint.save_model"]
        return {"step_ms": 1000.0 * self.step_time / n,
                "other_ms": 1000.0 * other / n,
                "unattributed_ms": 1000.0 * (self.step_time - named) / n}

    def layer_metrics(self, layer_names: list[str]) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in layer_names:
            out[f"model.{name}.fwd_ms"] = (self._per_call_ms(f"model.{name}.fwd"), "ms")
            if name not in NO_BACKWARD:
                out[f"model.{name}.bwd_ms"] = (self._per_call_ms(f"model.{name}.bwd"), "ms")
        forwards = max(self.calls["train.forward"], 1)
        for op in OPS:
            out[f"ops.{op}.fwd_ms"] = (self._per_call_ms(f"ops.{op}.fwd"), "ms")
            if op not in NO_BACKWARD:
                out[f"ops.{op}.bwd_ms"] = (self._per_call_ms(f"ops.{op}.bwd"), "ms")
            out[f"ops.{op}.calls"] = (self.calls[f"ops.{op}.fwd"] / forwards, "count")
        conv_s = self.total["ops.conv2d.fwd"]
        out["ops.conv2d.gflops"] = (self.flops / conv_s / 1e9 if conv_s else 0.0, "GFLOP/s")
        backwards = max(self.calls["tensor.backward"], 1)
        out["tensor.backward_ms"] = (self._per_call_ms("tensor.backward"), "ms")
        out["tensor.tape_nodes"] = (self.total["tensor.tape_nodes"] / backwards, "count")
        out["tensor.tape_mb"] = (self.total["tensor.tape_bytes"] / backwards / 2**20, "MB")
        for name in LOSSES:
            t = self.total[f"losses.{name}.fwd"] + self.total[f"losses.{name}.bwd"]
            n = max(self.calls[f"losses.{name}.fwd"], 1)
            out[f"losses.{name}_ms"] = (1000.0 * t / n, "ms")
        out["optim.sgd_step_ms"] = (self._per_call_ms("optim.sgd_step"), "ms")
        acct = self.step_accounting()
        for key in ("step_ms", "other_ms", "unattributed_ms"):
            out[f"train.{key}"] = (acct[key], "ms")
        out["gt_gen.downsample_mask_ms"] = (self._per_call_ms("gt_gen.downsample_mask"), "ms")
        out["gt_gen.dilate_window_ms"] = (
            self._per_call_ms("gt_gen.dilate_window", "gt_gen.masks"), "ms")
        out["metrics.accumulate_ms"] = (self._per_call_ms("metrics.accumulate"), "ms")
        for name in ("load_image", "load_mask", "write_corpus", "read_corpus"):
            out[f"synth_data.{name}_ms"] = (self._per_call_ms(f"synth_data.{name}"), "ms")
        for name in ("save_model", "load_model", "save_gt_cache", "load_gt_cache"):
            out[f"checkpoint.{name}_ms"] = (self._per_call_ms(f"checkpoint.{name}"), "ms")
        saves = max(self.calls["checkpoint.save_model"], 1)
        out["checkpoint.mb"] = (self.total["checkpoint.model_bytes"] / saves / 2**20, "MB")
        return out
