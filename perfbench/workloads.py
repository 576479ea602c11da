"""The three benchmark workloads.

Each is a single-process closed loop: one caller, the next unit of work
starts when the previous one returns.  Every input is made from the
benchmark seed (``dyngcn.data.synth_generate`` or a seeded numpy
generator), so nothing is downloaded.

train-gate     ``dyngcn.train.train`` end to end on the acceptance-gate
               model.  Tiny tensors: per-op Python and autodiff dispatch,
               batch norm and the optimizer outweigh GEMM time.  This is
               the shape behind most of the tier-1 test time, and it
               exercises the write side (checkpoint, metrics file).
train-ntu      forward, backward and ``NesterovSGD.step`` on the
               ``ntu-like`` preset at B=8.  Large activations: the static
               route, temporal-conv backward, reshape copies and retained
               memory dominate.
eval-ensemble  ``dyngcn.train.ensemble_checkpoints`` over a joint and a
               bone checkpoint of the ``ntu-like`` preset.  Forward only
               under ``no_grad``; exercises the read side (checkpoint
               load, sequence load, resize, normalize, bone modality,
               logit ensembling).
"""

from __future__ import annotations

import shutil
from types import SimpleNamespace

import numpy as np

import dyngcn.train as d_train
from dyngcn.checkpoint import load_checkpoint, save_checkpoint
from dyngcn.config import RunConfig, model_preset
from dyngcn.data import SynthSpec, load_manifest, synth_generate
from dyngcn.model import ModelConfig, build_model
from dyngcn.optim import NesterovSGD
from dyngcn.skeleton import build_layout
from dyngcn.tensor import Tensor, softmax_cross_entropy
from dyngcn.train import MetricsLog, collect_logits, load_dataset

from bench_stats import derive_seeds
from bench_trace import Patches

# Stated tolerance of the float32 engine against a float64 build of the
# same weights, on the first train step of train-ntu at 4 samples.  The
# loss agrees to about 1e-6.  The input gradient does not get close to
# float32 rounding: pre-activations near zero flip ReLU masks between the
# two precisions, and the learner's batch norm takes statistics over the
# batch alone.  Without a learner the same comparison gives about 1e-6 at
# 2 samples; with it, 35 seeds gave 0.0009 to 0.071.  A wrong backward
# formula gives an error of order one.
F64_SAMPLES = 4
F64_LOSS_RTOL = 1e-5
F64_GRAD_RTOL = 0.25


class TrainGate:
    name = "train-gate"
    train_phase = True
    # 5 classes x 48 = 240 training samples: 15 full batches of 16 per epoch.
    epochs = 7

    def __init__(self, seed):
        self.data_seed, self.model_seed, self.probe_seed = derive_seeds(seed, 3)
        self.config = ModelConfig(
            layout="ntu25", n_classes=5, frames=24, channels=(16, 16, 32, 32),
            strides=(1, 1, 2, 1), tc_kernel=5, aggregate_after=(2,), topology="context",
        )

    def setup(self, work):
        spec = SynthSpec(n_classes=5, samples_per_class=48, test_per_class=20,
                         layout="ntu25", frames=32, noise_sigma=0.05, seed=self.data_seed)
        synth_generate(work / "data", spec)
        return SimpleNamespace(work=work, units=0, result=None)

    def warm_up(self, state):
        pass

    def unit(self, state):
        state.units += 1
        out_dir = state.work / f"run{state.units}"
        config = RunConfig(
            model=self.config,
            train_manifest=str(state.work / "data" / "train.manifest"),
            test_manifest=str(state.work / "data" / "test.manifest"),
            out_dir=str(out_dir), lr=0.1, weight_decay=0.0004, batch_size=16,
            total_epochs=self.epochs, milestones=(self.epochs - 2,), decay=0.1,
            seed=self.model_seed,
        )
        if state.result is not None:
            shutil.rmtree(state.result.checkpoint_path.parent, ignore_errors=True)
        state.result = d_train.train(config)

    def checks(self, state):
        result = state.result
        losses = [r.train_loss for r in result.log.records]
        probe = np.random.default_rng(self.probe_seed).standard_normal(
            (4, 3, self.config.frames, 25)).astype(np.float32)
        reloaded, _ = load_checkpoint(result.checkpoint_path)
        return [
            ("epoch losses finite", bool(np.isfinite(losses).all()), f"{losses}"),
            ("last epoch loss below first", losses[-1] < losses[0],
             f"first {losses[0]:.6f} last {losses[-1]:.6f}"),
            ("metrics.txt matches the log",
             MetricsLog.load(result.metrics_path).format() == result.log.format(), ""),
            ("reloaded checkpoint logits bitwise equal",
             np.array_equal(collect_logits(result.model, probe), collect_logits(reloaded, probe)),
             "probe batch of 4"),
        ]


def ntu_batches(data_seed, batches, batch):
    """Seeded (batches, B, C, T, N) inputs and (batches, B) labels for ntu-like."""
    rng = np.random.default_rng(data_seed)
    xs = rng.standard_normal((batches, batch, 3, 64, 25)).astype(np.float32)
    ys = rng.integers(0, 60, (batches, batch))
    return xs, ys


class TrainNtu:
    name = "train-ntu"
    train_phase = True
    batch = 8
    batches = 4          # one unit is one pass over these
    warm_up_steps = 2    # the first steps of a process pay first-touch memory costs

    def __init__(self, seed):
        self.data_seed, self.model_seed = derive_seeds(seed, 2)
        self.config = model_preset("ntu-like")

    def setup(self, work):
        model = build_model(self.config, seed=self.model_seed)
        xs, ys = ntu_batches(self.data_seed, self.batches, self.batch)
        return SimpleNamespace(model=model, xs=xs, ys=ys, optimizer=None, losses=[])

    def _step(self, state, b):
        logits = state.model(Tensor(state.xs[b]))
        # looked up at call time so a traced run sees the loss it wraps
        loss = d_train.softmax_cross_entropy(logits, state.ys[b])
        value = float(loss.data)
        state.losses.append(value)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss {value} on batch {b}")
        loss.backward()
        if state.optimizer is None:
            live = [p for p in state.model.parameters() if p.grad is not None]
            state.optimizer = NesterovSGD(live, 0.1, momentum=0.9, weight_decay=0.0004)
        state.optimizer.step()

    def warm_up(self, state):
        for i in range(self.warm_up_steps):
            self._step(state, i % self.batches)

    def unit(self, state):
        for b in range(self.batches):
            self._step(state, b)

    def checks(self, state):
        # Peak RSS is read before the checks run; dropping the measured
        # model first keeps the float64 build from doubling the footprint.
        state.model = state.optimizer = None
        f64 = float64_check(self.model_seed, self.data_seed)
        return [
            ("all losses finite", bool(np.isfinite(state.losses).all()),
             f"{len(state.losses)} steps"),
            ("first-step loss matches float64", f64["loss_rel"] <= F64_LOSS_RTOL,
             f"relative error {f64['loss_rel']:.3g}, tolerance {F64_LOSS_RTOL:g}"),
            ("first-step input gradient matches float64", f64["grad_rel"] <= F64_GRAD_RTOL,
             f"relative error {f64['grad_rel']:.3g}, tolerance {F64_GRAD_RTOL:g}"),
        ]


def float64_check(model_seed, data_seed):
    """First-step loss and input gradient of float32 against a float64 build.

    Both models hold the same weights (the float32 initial weights, cast
    exactly); the batch is the first ``F64_SAMPLES`` of the first train-ntu
    batch.  Returns relative errors of the loss and of the gradient norm.
    """
    config = model_preset("ntu-like")
    m32 = build_model(config, seed=model_seed)
    m64 = build_model(config, seed=model_seed, dtype=np.float64)
    for (_, p32), (_, p64) in zip(m32.named_parameters(), m64.named_parameters()):
        p64.tensor.data[...] = p32.data
    for (_, b32), (_, b64) in zip(m32.named_buffers(), m64.named_buffers()):
        b64[...] = b32
    xs, ys = ntu_batches(data_seed, TrainNtu.batches, TrainNtu.batch)
    x, y = xs[0, :F64_SAMPLES], ys[0, :F64_SAMPLES]
    results = []
    for model, dtype in ((m32, np.float32), (m64, np.float64)):
        xt = Tensor(x.astype(dtype), requires_grad=True)
        loss = softmax_cross_entropy(model(xt), y)
        loss.backward()
        results.append((float(loss.data), xt.grad.astype(np.float64)))
    (l32, g32), (l64, g64) = results
    return {
        "loss_rel": abs(l32 - l64) / abs(l64),
        "grad_rel": float(np.linalg.norm(g32 - g64) / np.linalg.norm(g64)),
    }


class EvalEnsemble:
    name = "eval-ensemble"
    train_phase = False
    batch = 16
    # 8 classes x 6 = 48 test sequences: 3 full batches per stream.
    classes, per_class = 8, 6
    # Stored at 80 frames so every load resizes to the model's 64.
    stored_frames = 80

    def __init__(self, seed):
        self.data_seed, joint_seed, bone_seed = derive_seeds(seed, 3)
        self.streams = (("joint", joint_seed), ("bone", bone_seed))
        self.config = model_preset("ntu-like")

    def setup(self, work):
        spec = SynthSpec(n_classes=self.classes, samples_per_class=1,
                         test_per_class=self.per_class, layout="ntu25",
                         frames=self.stored_frames, seed=self.data_seed)
        synth_generate(work / "data", spec)
        checkpoints = []
        for modality, seed in self.streams:
            model = build_model(self.config, seed=seed)
            checkpoints.append(save_checkpoint(
                work / f"{modality}.ckpt", model, {"modality": modality, "layout": "ntu25"}))
        return SimpleNamespace(manifest=work / "data" / "test.manifest",
                               checkpoints=checkpoints, captured={})

    def warm_up(self, state):
        pass

    def unit(self, state):
        captured = state.captured

        def capture(original):
            def ensemble_logits(arrays):
                fused = original(arrays)
                captured["streams"] = [np.array(a) for a in arrays]
                captured["fused"] = fused
                return fused

            return ensemble_logits

        patches = Patches()
        patches.wrap(d_train, "ensemble_logits", capture)
        try:
            d_train.ensemble_checkpoints(state.checkpoints, state.manifest, batch_size=self.batch)
        finally:
            patches.restore()

    def checks(self, state):
        streams, fused = state.captured["streams"], state.captured["fused"]
        model, meta = load_checkpoint(state.checkpoints[0])
        x, _ = load_dataset(load_manifest(state.manifest), self.config.frames,
                            build_layout("ntu25"), meta["modality"])
        singles = np.concatenate([collect_logits(model, x[i:i + 1], batch_size=1)
                                  for i in range(3)])
        return [
            ("logits finite", all(np.isfinite(s).all() for s in streams), ""),
            ("batched logits bitwise equal per-sample logits",
             np.array_equal(streams[0][:3], singles), "first 3 sequences, joint stream"),
            ("fused logits equal the stream sum",
             np.array_equal(fused, streams[0].astype(np.float64) + streams[1]), ""),
        ]


WORKLOADS = {w.name: w for w in (TrainGate, TrainNtu, EvalEnsemble)}
