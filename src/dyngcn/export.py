"""Export class-average learned topology as a matrix and a DOT graph.

For one action class, run every sample through the trained model in eval
mode, collect the dependency matrix the learner predicted at one chosen
block, and average it over the class (first person only).  The result
goes to disk twice: the raw N x N matrix as text, and a DOT digraph
showing learned links above a threshold on top of the physical skeleton.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .skeleton import write_file
from .tensor import Tensor, no_grad
from .train import EVAL_BATCH_SIZE, load_checkpoint_inputs

DEFAULT_THRESHOLD = 0.4


def class_average_adjacency(model, x, labels, class_id, layer_index):
    """Average the block's predicted adjacency over one class.

    ``layer_index`` is the 1-based block position.  ``x`` is the usual
    (S, M, C, T, N) array; only each sample's first person contributes.
    Only the input stage and the blocks before the chosen one run, in
    batches of ``EVAL_BATCH_SIZE``; its learner then predicts the matrices
    directly.
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
    for start in range(0, chosen.size, EVAL_BATCH_SIZE):
        idx = chosen[start : start + EVAL_BATCH_SIZE]
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
        escaped = class_name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  label="{escaped}";')
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
                    out_prefix, threshold=DEFAULT_THRESHOLD):
    """Write <prefix>.txt and <prefix>.dot; returns (matrix, txt, dot)."""
    if not math.isfinite(threshold):
        # a non-finite threshold would draw every learned edge or none
        raise ValueError(f"threshold={threshold!r} must be finite")
    model, meta, x, labels = load_checkpoint_inputs(checkpoint_path, manifest_path)
    matrix = class_average_adjacency(model, x, labels, class_id, layer_index)
    names = meta.get("class_names", [])
    class_name = names[class_id] if class_id < len(names) else f"class {class_id}"
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    # appended, not swapped in: a dotted prefix such as topo.layer2 keeps its name
    txt_path = out_prefix.with_name(out_prefix.name + ".txt")
    dot_path = out_prefix.with_name(out_prefix.name + ".dot")
    return (matrix, write_file(txt_path, format_matrix(matrix)),
            write_file(dot_path, format_dot(matrix, model.layout, threshold, class_name)))
