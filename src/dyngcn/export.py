"""Export class-average learned topology as a matrix and a DOT graph.

For one action class, run every sample through the trained model in eval
mode, collect the dependency matrix the learner predicted at one chosen
block, and average it over the class (first person only).  The result
goes to disk twice: the raw N x N matrix as text, and a DOT digraph
showing learned links above a threshold on top of the physical skeleton.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import load_manifest
from .skeleton import build_layout
from .tensor import Tensor, no_grad
from .train import load_dataset

DEFAULT_THRESHOLD = 0.4


def class_average_adjacency(model, x, labels, class_id, layer_index, batch_size=16):
    """Average the block's predicted adjacency over one class.

    ``layer_index`` is the 1-based block position.  ``x`` is the usual
    (S, M, C, T, N) array; only each sample's first person contributes.
    Only the input stage and the blocks before the chosen one run; its
    learner then predicts the matrices directly.
    """
    n_blocks = len(model.blocks)
    if not 1 <= layer_index <= n_blocks:
        raise ValueError(f"layer index {layer_index} outside 1..{n_blocks}")
    block = model.blocks[layer_index - 1]
    if block.learner is None:
        raise ValueError(f"block {layer_index} has no topology learner; nothing to export")
    chosen = np.flatnonzero(labels == class_id)
    if chosen.size == 0:
        raise ValueError(f"no samples with class {class_id}")
    model.eval()
    total = None
    for start in range(0, chosen.size, batch_size):
        idx = chosen[start : start + batch_size]
        with no_grad():
            h, batch, persons = model.input_stage(Tensor(x[idx]))
            for earlier in model.blocks[: layer_index - 1]:
                h = earlier(h)
            adj = block.learner(h).data
        first = adj.reshape(batch, persons, *adj.shape[1:])[:, 0]
        summed = first.sum(axis=0, dtype=np.float64)
        total = summed if total is None else total + summed
    return total / chosen.size


def format_matrix(matrix):
    lines = [" ".join(f"{v:.8f}" for v in row) for row in np.asarray(matrix)]
    return "\n".join(lines) + "\n"


def format_dot(matrix, layout, threshold=DEFAULT_THRESHOLD, class_name=""):
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    lines = ["digraph topology {"]
    if class_name:
        lines.append(f'  label="{class_name}";')
    lines.append("  node [shape=circle];")
    for i in range(n):
        lines.append(f"  j{i};")
    if layout is not None and layout.n_joints == n:
        for a, b in layout.edges:
            lines.append(f"  j{a} -> j{b} [dir=none, color=gray];")
    for i in range(n):
        for j in range(n):
            if matrix[i, j] > threshold:
                lines.append(f'  j{i} -> j{j} [label="{matrix[i, j]:.2f}", color=black];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_topology(checkpoint_path, manifest_path, layer_index, class_id,
                    out_prefix, threshold=DEFAULT_THRESHOLD, batch_size=16):
    """Write <prefix>.txt and <prefix>.dot; returns (matrix, txt, dot)."""
    model, meta = load_checkpoint(checkpoint_path)
    manifest = load_manifest(manifest_path)
    layout = build_layout(model.config.layout)
    x, labels = load_dataset(manifest, model.config.frames, layout,
                             meta.get("modality", "joint"))
    matrix = class_average_adjacency(model, x, labels, class_id, layer_index,
                                     batch_size=batch_size)
    block = model.blocks[layer_index - 1]
    graph_layout = layout if block.spec.in_joints == layout.n_joints else None
    names = meta.get("class_names", [])
    class_name = names[class_id] if class_id < len(names) else f"class {class_id}"
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    txt_path = out_prefix.with_suffix(".txt")
    dot_path = out_prefix.with_suffix(".dot")
    txt_path.write_text(format_matrix(matrix))
    dot_path.write_text(format_dot(matrix, graph_layout, threshold, class_name))
    return matrix, txt_path, dot_path
