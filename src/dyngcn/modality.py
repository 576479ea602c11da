"""Input stream derivations: bones, motion, and logit ensembling.

These operate on plain numpy arrays shaped (..., C, T, N) so they slot in
before tensors enter the model.  Bone vectors point from the source joint
to the target joint of each layout bone pair; the center joint keeps a
zero bone.  Motion is the forward temporal difference with a zero final
frame.  Multi-stream fusion is an elementwise sum of logits.
"""

from __future__ import annotations

import numpy as np


def derive_bone(coords, layout):
    """Bone vectors per layout bone pair; (..., C, T, N) in and out."""
    bones = np.zeros_like(coords)
    for source, target in layout.bone_pairs:
        bones[..., target] = coords[..., target] - coords[..., source]
    return bones


def derive_motion(coords):
    """Forward frame difference along the time axis (axis -2); last frame zero."""
    motion = np.zeros_like(coords)
    motion[..., :-1, :] = coords[..., 1:, :] - coords[..., :-1, :]
    return motion


# Modality name -> transform of (coords, layout).
MODALITIES = {
    "joint": lambda coords, layout: coords,
    "bone": derive_bone,
    "joint_motion": lambda coords, layout: derive_motion(coords),
    "bone_motion": lambda coords, layout: derive_motion(derive_bone(coords, layout)),
}


def refuse_unknown_modality(name):
    if not isinstance(name, str) or name not in MODALITIES:
        raise ValueError(f"unknown modality {name!r}, expected one of {tuple(MODALITIES)}")


def apply_modality(coords, modality, layout):
    """Apply a known modality; ``RunConfig`` and ``load_checkpoint`` refuse others."""
    return MODALITIES[modality](coords, layout)


def ensemble_logits(logit_arrays):
    """Sum a non-empty list of per-stream logits of one shape, in float64."""
    total = np.zeros(np.shape(logit_arrays[0]), dtype=np.float64)
    for a in logit_arrays:
        total += a
    return total
