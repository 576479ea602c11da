#!/usr/bin/env python3
"""Anatomy of a forward pass.

Builds the full-size classifier, pushes one batch through it, and
prints the block plan it was built from: how channels, frames, and
joints evolve. The joint axis shrinks twice on the way down; that is
the aggregation schedule doing its job.
"""

import numpy as np

from dyngcn.model import ModelConfig, build_model
from dyngcn.tensor import Tensor, no_grad

config = ModelConfig(layout="ntu25", n_classes=60)
model = build_model(config, seed=0)
print(f"blocks: {len(model.blocks)}, parameters: {model.parameter_count():,}")

x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 25)).astype(np.float32))
with no_grad():
    logits = model.eval()(x)
print(f"input {x.data.shape} -> logits {logits.data.shape}\n")

# The same plan drives the cost model (demo 06), so the two cannot drift.
print("block  channels      frames      joints")
for i, spec in enumerate(config.block_plan(model.layout.n_joints), start=1):
    print(f"  {i:2d}   {spec.in_channels:3d} -> {spec.out_channels:3d}"
          f"   {spec.in_frames:3d} -> {spec.out_frames:3d}"
          f"   {spec.in_joints:3d} -> {spec.out_joints:3d}")

# Each block fuses two spatial paths: the static one runs the input
# through all three masked skeleton graphs, the dynamic one multiplies
# by a per-sample matrix predicted from the input itself. Disabling the
# learner leaves a pure static model with fewer parameters.
static_only = build_model(ModelConfig(layout="ntu25", n_classes=60, topology="none"), seed=0)
delta = model.parameter_count() - static_only.parameter_count()
print(f"\nparameters spent on topology learners: {delta:,}")

# Two-person inputs add a leading person axis; per-person features are
# averaged after global pooling, so a duplicated person changes nothing.
single = Tensor(x.data[:1])
double = Tensor(np.stack([x.data[:1], x.data[:1]], axis=1))
with no_grad():
    a = model(single).data
    b = model(double).data
print(f"duplicated person shifts logits by {np.abs(a - b).max():.2e}")
