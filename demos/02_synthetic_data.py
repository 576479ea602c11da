#!/usr/bin/env python3
"""Synthetic motion data, file formats, and input modality streams.

Generates a small seeded dataset, pokes at one sequence on disk in both
the binary and text formats, and derives the bone and motion streams
that ensembles are built from.
"""

import tempfile
from pathlib import Path

import numpy as np

from dyngcn.data import (
    SynthSpec,
    load_manifest,
    load_sequence,
    save_sequence_text,
    synth_generate,
)
from dyngcn.modality import apply_modality
from dyngcn.skeleton import build_layout

root = Path(tempfile.mkdtemp(prefix="dyngcn-demo-"))

# Every byte of the dataset is a function of these fields, so a rerun
# with the same seed writes identical files.
spec = SynthSpec(n_classes=3, samples_per_class=6, test_per_class=3,
                 layout="ntu25", frames=40, noise_sigma=0.03, seed=20)
train_manifest, test_manifest = synth_generate(root, spec)
print(f"wrote {len(train_manifest.entries)} train / "
      f"{len(test_manifest.entries)} test sequences under {root}")
print(f"classes: {train_manifest.class_names}")

rel, label = train_manifest.entries[0]
seq = load_sequence(root / rel)
print(f"\n{rel}: label {label}, layout {seq.layout_name}, "
      f"data shape {seq.data.shape} (T, M, N, D)")

# Classes differ by which joints move. Motion energy per joint makes
# that visible: a handful of joints carry almost all the variance.
energy = seq.data[:, 0].std(axis=0).mean(axis=1)
moving = np.argsort(energy)[::-1][:5]
print(f"most active joints: {moving.tolist()} "
      f"(energy {[f'{energy[j]:.3f}' for j in moving]})")

# The same sequence round-trips through the text format bit-exactly;
# handy for diffing or editing a sequence by hand.
text_path = save_sequence_text(root / "sample.sklt", seq)
back = load_sequence(text_path)
print(f"\ntext round trip bit-exact: {np.array_equal(back.data, seq.data)}")
print("first lines of the text form:")
for line in text_path.read_text().splitlines()[:6]:
    print(f"  {line}")

# Manifests are just relative paths plus labels; reload one to check.
again = load_manifest(root / "train.manifest")
print(f"\nmanifest reload matches: {again.entries == train_manifest.entries}")

# Modality streams reinterpret the same coordinates. Bones are joint
# differences along the skeleton tree, motion is the frame difference.
layout = build_layout(spec.layout)
x = seq.data.transpose(1, 3, 0, 2)[None]  # (B, M, C, T, N)
for name in ("joint", "bone", "joint_motion", "bone_motion"):
    stream = apply_modality(x, name, layout)
    print(f"{name:13s} mean |value| {np.abs(stream).mean():.4f}")
