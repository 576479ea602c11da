#!/usr/bin/env python3
"""Training end to end, plus a two-stream ensemble.

Trains a small classifier on seeded synthetic motion twice: once on raw
joint positions and once on the bone stream derived from them. Each run
writes a checkpoint and a metrics file; summing the two checkpoints'
logits gives the ensemble result.
"""

import tempfile
from pathlib import Path

from dyngcn.config import RunConfig
from dyngcn.data import SynthSpec, synth_generate
from dyngcn.model import ModelConfig
from dyngcn.train import ensemble_checkpoints, train

spec = SynthSpec(n_classes=3, samples_per_class=10, test_per_class=5,
                 layout="ntu25", frames=32, noise_sigma=0.05, seed=20)
model_config = ModelConfig(layout="ntu25", n_classes=3, frames=16,
                           channels=(8, 16), strides=(1, 2), tc_kernel=5,
                           aggregate_after=(1,), topology="context")


def run(root, name, modality):
    config = RunConfig(
        model=model_config,
        train_manifest=str(root / "data" / "train.manifest"),
        test_manifest=str(root / "data" / "test.manifest"),
        out_dir=str(root / name), modality=modality,
        lr=0.1, weight_decay=0.0004, batch_size=8,
        total_epochs=12, milestones=(8, 10), decay=0.1, seed=0,
    )
    result = train(config)
    last = result.log.records[-1]
    print(f"{name}: final top1 {last.top1:.3f}, train loss {last.train_loss:.4f}")
    return result


# The data and runs live in a temporary directory that is removed on exit.
with tempfile.TemporaryDirectory(prefix="dyngcn-demo-") as tmp:
    root = Path(tmp)
    synth_generate(root / "data", spec)

    print("training the joint stream...")
    joint = run(root, "joint", "joint")
    print("training the bone stream...")
    bone = run(root, "bone", "bone")

    # The metrics file is plain text, one epoch per line, no timestamps:
    # rerunning with the same seed reproduces it byte for byte.
    print("\nlast three lines of the joint metrics file:")
    for line in joint.metrics_path.read_text().splitlines()[-3:]:
        print(f"  {line}")

    per_stream, fused = ensemble_checkpoints(
        [joint.checkpoint_path, bone.checkpoint_path],
        root / "data" / "test.manifest", batch_size=8,
    )
    singles = ", ".join(f"{r.top1:.3f}" for r in per_stream)
    print(f"\nstream accuracies: {singles}; ensemble: {fused.top1:.3f}")
