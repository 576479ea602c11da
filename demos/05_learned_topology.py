#!/usr/bin/env python3
"""What the topology learner actually learns.

The dynamic branch predicts a joint-by-joint relation matrix from each
input sequence. This script shows the learner's invariants on random
data, then trains briefly and exports the class-average matrix as text
and as Graphviz DOT, where learned links sit on top of the skeleton.
"""

import tempfile
from pathlib import Path

import numpy as np

from dyngcn.config import RunConfig
from dyngcn.data import SynthSpec, synth_generate
from dyngcn.export import export_topology
from dyngcn.model import ModelConfig
from dyngcn.tensor import Tensor
from dyngcn.topology import ContextEncoder, NonLocalTopology
from dyngcn.train import train

rng = np.random.default_rng(0)

# Invariant 1: rows of the predicted matrix are unit-length (L2), so no
# joint can dominate by sheer magnitude.
enc = ContextEncoder(channels=4, frames=8, joints=10, axis="joint", symmetric=False,
                     final_relu=True, rng=rng)
out = enc(Tensor(rng.standard_normal((2, 4, 8, 10)))).data
print(f"row norms: {np.linalg.norm(out, axis=2).round(3).min()} .. "
      f"{np.linalg.norm(out, axis=2).round(3).max()}")

# Invariant 2: the matrix is directed. Joint i can attend to j more
# than j attends to i; the symmetric variant removes that freedom.
gap = np.abs(out - out.transpose(0, 2, 1)).max()
sym = ContextEncoder(channels=4, frames=8, joints=10, axis="joint",
                     symmetric=True, final_relu=True, rng=rng)
pre = sym.scores(Tensor(rng.standard_normal((2, 4, 8, 10)))).data
print(f"directed asymmetry {gap:.3f}; symmetric variant pre-normalization "
      f"asymmetry {np.abs(pre - pre.transpose(0, 2, 1)).max():.1f}")

# The attention-style baseline produces softmax rows instead.
attn = NonLocalTopology(channels=4, rng=rng)
rows = attn(Tensor(rng.standard_normal((2, 4, 8, 10)))).data.sum(axis=2)
print(f"attention baseline row sums: {rows.min():.6f} .. {rows.max():.6f}")

# Now train a small model and look at what block 1 learned per class.
# The data and runs live in a temporary directory that is removed on exit.
with tempfile.TemporaryDirectory(prefix="dyngcn-demo-") as tmp:
    root = Path(tmp)
    spec = SynthSpec(n_classes=3, samples_per_class=10, test_per_class=5,
                     layout="ntu25", frames=32, noise_sigma=0.05, seed=20)
    synth_generate(root / "data", spec)
    config = RunConfig(
        model=ModelConfig(layout="ntu25", n_classes=3, frames=16,
                          channels=(8, 16), strides=(1, 2), tc_kernel=5,
                          aggregate_after=(1,), topology="context"),
        train_manifest=str(root / "data" / "train.manifest"),
        test_manifest=str(root / "data" / "test.manifest"),
        out_dir=str(root / "run"), lr=0.1, weight_decay=0.0004,
        batch_size=8, total_epochs=12, milestones=(8, 10), seed=0,
    )
    result = train(config)
    print(f"\ntrained to top1 {result.log.records[-1].top1:.3f}")

    for class_id in range(3):
        _, txt, dot = export_topology(result.checkpoint_path,
                                      root / "data" / "test.manifest",
                                      layer_index=1, class_id=class_id,
                                      out_prefix=root / "topo" / f"pattern{class_id}")
        print(f"wrote {txt} and {dot}")

    # The DOT file keeps skeleton edges gray and draws learned links in
    # black with their strengths; a threshold hides the weak ones.
    dot = (root / "topo" / "pattern0.dot").read_text()
    learned = [ln for ln in dot.splitlines() if "label=" in ln and "->" in ln]
    print(f"\npattern0: {len(learned)} learned links above threshold, e.g.")
    for line in learned[:3]:
        print(f"  {line.strip()}")
