"""Timing hooks attached to ``dyngcn`` from outside the package.

Two layers of instrumentation, both installed by replacing attributes of
the ``dyngcn`` modules and put back afterwards:

``StepTimer``  always on.  Times train steps (entry of a training-mode
               classifier forward to the end of ``NesterovSGD.step``) and
               eval batches (one eval-mode classifier forward).
``Tracer``     only in a traced run.  Attributes every tensor op, as the
               model, layer, topology and skeleton modules bind it, to the
               innermost active *row*, and times each op's backward
               closure under the same row.  Rows mirror the cost-report
               rows of ``dyngcn.flops`` (``static``, ``learner``,
               ``dynamic``, ``tc``, ``shortcut``, ``project``) plus
               ``norm_act`` (block glue: batch norms, ReLUs, residual and
               fusion adds) and ``head`` (input norm, pooling, classifier,
               loss).  Function-level layers (data, checkpoint, optimizer,
               ...) are inclusive spans.

Rows take self time: an op counts only toward the innermost row open when
it runs, and forward time spent outside every op is reported as
unattributed.
"""

from __future__ import annotations

import contextlib
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

import dyngcn.layers as d_layers
import dyngcn.model as d_model
import dyngcn.optim as d_optim
import dyngcn.skeleton as d_skeleton
import dyngcn.tensor as d_tensor
import dyngcn.topology as d_topology
import dyngcn.train as d_train

# Rows that carry contraction work; each matches a cost-report row kind.
FLOP_ROWS = ("static", "learner", "dynamic", "tc", "shortcut", "project")
ROWS = FLOP_ROWS + ("norm_act", "head")

# Tensor ops that may be bound by name in the modules the model is built from.
OP_NAMES = (
    "add", "mul", "neg", "scale", "relu", "reshape", "permute", "matmul",
    "conv2d", "batch_norm", "softmax", "softmax_cross_entropy",
    "l2_row_normalize", "mean_pool_global", "tensor_mean", "tensor_sum",
)
OP_MODULES = (d_model, d_layers, d_topology, d_skeleton)

# Marks a stretch (an eval forward inside a training run, say) that is
# not attributed to any row.
OFF = None


class Patches:
    """Replace attributes and put the originals back, newest first."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepTimer:
    """Wall time of each train step and each eval batch."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.steps = []         # (seconds, samples)
        self.batches = []       # (seconds, samples)
        self.nonfinite_batches = 0
        self._open = None       # (start, samples) of the step in progress

    def install(self, patches):
        patches.wrap(d_model.SkeletonClassifier, "forward", self._forward)
        patches.wrap(d_optim.NesterovSGD, "step", self._step)

    def _forward(self, original):
        timer = self

        def forward(model, x, *args, **kwargs):
            start = timer.clock()
            out = original(model, x, *args, **kwargs)
            samples = x.data.shape[0]
            if model.training:
                timer._open = (start, samples)
            else:
                timer.batches.append((timer.clock() - start, samples))
                if not np.isfinite(out.data).all():
                    timer.nonfinite_batches += 1
            return out

        return forward

    def _step(self, original):
        timer = self

        def step(optimizer):
            original(optimizer)
            if timer._open is not None:
                start, samples = timer._open
                timer.steps.append((timer.clock() - start, samples))
                timer._open = None

        return step


def contraction_flops(name, args, out):
    """FLOPs (2 per multiply-add) of one matmul or conv2d call."""
    if name == "matmul":
        return 2 * out.data.size * args[0].data.shape[-1]
    weight = args[1].data            # (C_out, C_in, kt, 1)
    return 2 * out.data.size * weight.shape[1] * weight.shape[2]


def tape_size(root):
    """(nodes with a backward closure, bytes of the distinct arrays they hold)."""
    nodes = 0
    nbytes = 0
    seen = set()
    bases = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            nodes += 1
            base = node.data
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in bases:
                bases.add(id(base))
                nbytes += base.nbytes
        stack.extend(node._prev)
    return nodes, nbytes


class Tracer:
    """Per-row forward/backward time, contraction FLOPs and layer spans.

    ``train_phase`` says which classifier forwards are attributed: those
    in training mode (train workloads) or in eval mode (eval workloads).
    The other kind runs untraced, inside whatever span called it.
    """

    def __init__(self, train_phase, clock=time.perf_counter):
        self.train_phase = bool(train_phase)
        self.clock = clock
        self._rows = []
        self._layers = weakref.WeakKeyDictionary()   # module -> (row, block)
        self.fwd = defaultdict(float)                 # row -> seconds
        self.bwd = defaultdict(float)
        self.flops = defaultdict(int)                 # cost-report row name -> FLOPs
        self.forward_s = 0.0                          # attributed forwards plus loss
        self.forwards = 0
        self.bodies = 0
        self.op_calls = 0
        self.backward_s = 0.0
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.span_s = defaultdict(float)
        self.span_calls = defaultdict(int)
        self.span_amount = defaultdict(float)

    # -- row bookkeeping -------------------------------------------------

    def current(self):
        return self._rows[-1] if self._rows else OFF

    @contextlib.contextmanager
    def row(self, name, block=None):
        """Open a row; inside an unattributed stretch it stays unattributed."""
        off = self._rows and self._rows[-1] is OFF
        self._rows.append(OFF if off or name is OFF else (name, block))
        try:
            yield
        finally:
            self._rows.pop()

    def register(self, model):
        """Map a classifier's submodules to the rows their calls open."""
        if model in self._layers:
            return
        self._layers[model] = ("head", None)   # marks the model as mapped
        for i, block in enumerate(model.blocks, start=1):
            self._layers[block] = ("norm_act", i)
            self._layers[block.tc_conv] = ("tc", i)
            if block.learner is not None:
                self._layers[block.learner] = ("learner", i)
            if block.shortcut_conv is not None:
                self._layers[block.shortcut_conv] = ("shortcut", i)
                self._layers[block.shortcut_bn] = ("shortcut", i)

    def op(self, name, original):
        """Wrap one tensor op: time it and its backward under the current row."""
        tracer = self
        clock = self.clock
        counts_flops = name in ("matmul", "conv2d")

        def traced(*args, **kwargs):
            row = tracer.current()
            if row is OFF:
                return original(*args, **kwargs)
            start = clock()
            out = original(*args, **kwargs)
            kind, block = row
            tracer.fwd[kind] += clock() - start
            tracer.op_calls += 1
            if counts_flops:
                key = "classifier" if kind == "head" else f"block{block}.{kind}"
                tracer.flops[key] += contraction_flops(name, args, out)
            backward = out._backward
            if backward is not None:
                def timed_backward(g):
                    begin = clock()
                    backward(g)
                    tracer.bwd[kind] += clock() - begin

                out._backward = timed_backward
            return out

        return traced

    # -- installation ----------------------------------------------------

    def install(self, patches):
        for module in OP_MODULES:
            for name in OP_NAMES:
                if getattr(module, name, None) is getattr(d_tensor, name):
                    patches.wrap(module, name, lambda original, name=name: self.op(name, original))
        patches.wrap(d_train, "softmax_cross_entropy", self._loss)
        patches.wrap(d_model.SkeletonClassifier, "forward", self._classifier_forward)
        patches.wrap(d_layers.Module, "__call__", self._module_call)
        for name, row in (("static_branch", "static"), ("dynamic_branch", "dynamic"),
                          ("joint_aggregate", "project")):
            patches.wrap(d_model, name, lambda original, row=row: self._row_function(row, original))
        patches.wrap(d_tensor.Tensor, "backward", self._backward)
        for owner, name, span, amount in (
            (d_train, "load_manifest", "data.load_manifest", None),
            (d_train, "load_sequence", "data.load_sequence", None),
            (d_train, "load_dataset", "train.load_dataset", None),
            (d_train, "apply_modality", "modality.apply_modality", None),
            (d_train, "ensemble_logits", "modality.ensemble_logits", None),
            (d_train, "collect_logits", "train.collect_logits", None),
            (d_train, "evaluate_arrays", "train.epoch_eval", None),
            (d_train, "load_checkpoint", "checkpoint.load",
             lambda args, out: Path(args[0]).stat().st_size),
            (d_train, "save_checkpoint", "checkpoint.save",
             lambda args, out: Path(out).stat().st_size),
            (d_optim.NesterovSGD, "step", "optim.step", lambda args, out: len(args[0].params)),
        ):
            patches.wrap(owner, name,
                         lambda original, span=span, amount=amount: self._span(span, original, amount))
        # Counted per attributed forward, so only inside rows.
        patches.wrap(d_skeleton.TopologySet, "static_topology",
                     lambda original: self._span("skeleton.static_topology", original, None,
                                                 rows_only=True))

    def _span(self, name, original, amount, rows_only=False):
        tracer = self

        def spanned(*args, **kwargs):
            if rows_only and tracer.current() is OFF:
                return original(*args, **kwargs)
            start = tracer.clock()
            out = original(*args, **kwargs)
            tracer.span_s[name] += tracer.clock() - start
            tracer.span_calls[name] += 1
            if amount is not None:
                tracer.span_amount[name] += amount(args, out)
            return out

        return spanned

    def _classifier_forward(self, original):
        tracer = self

        def forward(model, x, *args, **kwargs):
            if model.training != tracer.train_phase:
                with tracer.row(OFF):
                    return original(model, x, *args, **kwargs)
            tracer.register(model)
            start = tracer.clock()
            with tracer.row("head"):
                out = original(model, x, *args, **kwargs)
            tracer.forward_s += tracer.clock() - start
            tracer.forwards += 1
            shape = x.data.shape
            tracer.bodies += shape[0] * (shape[1] if len(shape) == 5 else 1)
            return out

        return forward

    def _loss(self, original):
        tracer = self
        traced = self.op("softmax_cross_entropy", original)

        def loss(*args, **kwargs):
            start = tracer.clock()
            with tracer.row("head"):
                out = traced(*args, **kwargs)
            tracer.forward_s += tracer.clock() - start
            return out

        return loss

    def _module_call(self, original):
        tracer = self

        def call(module, *args, **kwargs):
            entry = tracer._layers.get(module)
            if entry is None or tracer.current() is OFF:
                return original(module, *args, **kwargs)
            with tracer.row(*entry):
                return original(module, *args, **kwargs)

        return call

    def _row_function(self, name, original):
        tracer = self

        def function(*args, **kwargs):
            row = tracer.current()
            if row is OFF:
                return original(*args, **kwargs)
            with tracer.row(name, row[1]):
                return original(*args, **kwargs)

        return function

    def _backward(self, original):
        tracer = self

        def backward(tensor, *args, **kwargs):
            nodes, nbytes = tape_size(tensor)
            start = tracer.clock()
            original(tensor, *args, **kwargs)
            tracer.backward_s += tracer.clock() - start
            tracer.tape_nodes += nodes
            tracer.tape_bytes += nbytes

        return backward

    # -- results ---------------------------------------------------------

    def flops_mismatches(self, report):
        """Differences between traced contraction FLOPs and the cost model.

        ``report`` is ``count_model_flops`` for the traced config, per body;
        the traced counts cover every attributed forward.  Returns a list
        of human-readable mismatches, empty when the two agree row by row.
        """
        expected = {e.name: e.flops * self.bodies for e in report.entries if e.flops}
        traced = {name: flops for name, flops in self.flops.items() if flops}
        problems = []
        for name in sorted(set(expected) | set(traced)):
            if expected.get(name) != traced.get(name):
                problems.append(f"{name}: cost model {expected.get(name)} traced {traced.get(name)}")
        return problems

    def metrics(self, report, step_s, units):
        """Per-layer metrics as ``{name: (value, unit)}``.

        Per train step or eval batch, summed over blocks:
          ``<row>.fwd_ms``/``.bwd_ms``  self time of the row's ops and of
                                        their backward closures
          ``<row>.gflop_s``             cost-model forward FLOPs of the row
                                        over its forward time
          ``<row>.share``               forward plus backward time over
                                        the traced step or batch time
          ``model.unattributed_ms``     forward (and loss) time outside
                                        every op
          ``tensor.*``                  backward wall time, MiB of arrays
                                        the tape holds when backward
                                        starts, op calls, tape nodes
          ``optim.step.*``, ``skeleton.static_topology.*``, and
          ``flops.step_gflop`` (computed from the cost model).
        Per unit call: inclusive wall time of each function span, the MiB
        of checkpoint files read or written, sequence files read.

        ``report`` is the per-body cost report of the traced config,
        ``step_s`` the summed wall time of the traced steps or batches,
        ``units`` the number of unit calls the spans cover.
        """
        steps = max(self.forwards, 1)
        per_step_ms = 1000.0 / steps
        row_flops = defaultdict(int)
        for entry in report.entries:
            kind = "head" if entry.name == "classifier" else entry.name.split(".", 1)[1]
            row_flops[kind] += entry.flops * self.bodies
        out = {}
        for kind in ROWS:
            prefix = "topology.learner" if kind == "learner" else f"model.{kind}"
            fwd, bwd = self.fwd[kind], self.bwd[kind]
            out[f"{prefix}.fwd_ms"] = (fwd * per_step_ms, "ms")
            out[f"{prefix}.bwd_ms"] = (bwd * per_step_ms, "ms")
            if kind in FLOP_ROWS:
                out[f"{prefix}.gflop_s"] = (row_flops[kind] / fwd / 1e9 if fwd else 0.0, "GFLOP/s")
            out[f"{prefix}.share"] = ((fwd + bwd) / step_s if step_s else 0.0, "fraction")
        out["model.unattributed_ms"] = (
            (self.forward_s - sum(self.fwd.values())) * per_step_ms, "ms")
        out["tensor.backward_ms"] = (self.backward_s * per_step_ms, "ms")
        out["tensor.tape_mib"] = (self.tape_bytes / 2**20 / steps, "MiB")
        out["tensor.op_calls"] = (self.op_calls / steps, "count")
        out["tensor.tape_nodes"] = (self.tape_nodes / steps, "count")
        out["optim.step.ms"] = (self.span_s["optim.step"] * per_step_ms, "ms")
        out["optim.step.param_arrays"] = (
            self.span_amount["optim.step"] / max(self.span_calls["optim.step"], 1), "count")
        out["skeleton.static_topology.calls"] = (
            self.span_calls["skeleton.static_topology"] / steps, "count")
        out["skeleton.static_topology.ms"] = (
            self.span_s["skeleton.static_topology"] * per_step_ms, "ms")
        per_unit_ms = 1000.0 / max(units, 1)
        for span in ("checkpoint.load", "checkpoint.save", "data.load_manifest",
                     "data.load_sequence", "train.load_dataset", "modality.apply_modality",
                     "modality.ensemble_logits", "train.collect_logits", "train.epoch_eval"):
            out[f"{span}.ms"] = (self.span_s[span] * per_unit_ms, "ms")
        for span in ("checkpoint.load", "checkpoint.save"):
            out[f"{span}.mib"] = (self.span_amount[span] / 2**20 / max(units, 1), "MiB")
        out["data.load_sequence.files"] = (
            self.span_calls["data.load_sequence"] / max(units, 1), "count")
        out["flops.step_gflop"] = (report.total * self.bodies / steps / 1e9, "GFLOP")
        return out
