from dataclasses import replace

import numpy as np
import pytest

from dyngcn import cli
from dyngcn.checkpoint import load_checkpoint
from dyngcn.data import load_manifest
from dyngcn.export import class_average_adjacency, export_topology, format_dot
from dyngcn.model import build_model
from dyngcn.skeleton import build_layout
from dyngcn.tensor import Tensor, no_grad
from dyngcn.train import load_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = cli.main([
        "synth", "--out", str(data), "--classes", "2",
        "--train-per-class", "8", "--test-per-class", "4",
        "--frames", "20", "--noise", "0.05", "--seed", "3",
    ])
    assert code == 0
    code = cli.main([
        "train", "--preset", "smoke",
        "--train-manifest", str(data / "train.manifest"),
        "--test-manifest", str(data / "test.manifest"),
        "--out-dir", str(root / "run"),
        "--seed", "0", "--epochs", "2",
    ])
    assert code == 0
    return root


def test_synth_reports_paths(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "d"), "--classes", "2",
                     "--train-per-class", "2", "--test-per-class", "1",
                     "--frames", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "train.manifest" in out and "test.manifest" in out
    assert (tmp_path / "d" / "train.manifest").exists()


def test_train_then_eval(workspace, capsys):
    code = cli.main([
        "eval", "--checkpoint", str(workspace / "run" / "model.ckpt"),
        "--manifest", str(workspace / "data" / "test.manifest"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "top1 " in out and "top5 " in out
    assert "samples 8" in out


def test_ensemble_command(workspace, capsys):
    ckpt = str(workspace / "run" / "model.ckpt")
    code = cli.main([
        "ensemble", "--checkpoints", ckpt, ckpt,
        "--manifest", str(workspace / "data" / "test.manifest"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("stream ") == 2
    assert "ensemble: top1" in out


def test_flops_toy_hand_summed(capsys):
    code = cli.main(["flops", "--preset", "toy"])
    out = capsys.readouterr().out
    assert code == 0
    assert "64,216" in out      # without the learner
    assert "113,666" in out     # with it
    assert "+0.7701" in out     # overhead 49450/64216 on the tiny config


def test_flops_single_mode_and_kv(tmp_path, capsys):
    kv_path = tmp_path / "report.kv"
    code = cli.main(["flops", "--preset", "ntu-like", "--without-cen",
                     "--kv", str(kv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2,230,588,544" in out
    assert "overhead" not in out
    kv = kv_path.read_text()
    assert "total=2230588544" in kv


def test_flops_both_modes_overhead(capsys):
    code = cli.main(["flops", "--preset", "ntu-like"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2,230,588,544" in out and "2,426,522,712" in out
    assert "+0.0878" in out


def test_error_line_and_exit_code(workspace, capsys):
    code = cli.main(["eval", "--checkpoint", str(workspace / "missing.ckpt"),
                     "--manifest", str(workspace / "data" / "test.manifest")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


# -- topology export ----------------------------------------------------


def test_export_topology_files(workspace, capsys):
    prefix = workspace / "viz" / "class0"
    code = cli.main([
        "export-topology",
        "--checkpoint", str(workspace / "run" / "model.ckpt"),
        "--manifest", str(workspace / "data" / "test.manifest"),
        "--layer", "1", "--class-id", "0",
        "--out", str(prefix),
    ])
    assert code == 0
    matrix = np.loadtxt(prefix.with_suffix(".txt"))
    assert matrix.shape == (25, 25)
    norms = np.linalg.norm(matrix, axis=1)
    assert norms.max() <= 1.0 + 1e-5  # averages of unit-norm rows
    dot = prefix.with_suffix(".dot").read_text()
    assert dot.startswith("digraph")
    assert "dir=none" in dot  # physical skeleton edges present


def test_export_high_threshold_only_physical(workspace, tmp_path):
    matrix, _, dot_path = export_topology(
        workspace / "run" / "model.ckpt",
        workspace / "data" / "test.manifest",
        1, 0, tmp_path / "t", threshold=1.1,
    )
    dot = dot_path.read_text()
    assert '[label="' not in dot  # no learned edge survives the threshold
    layout = build_layout("ntu25")
    assert dot.count("dir=none") == len(layout.edges)


def test_export_second_block_has_reduced_joint_axis(workspace, tmp_path):
    # the smoke model aggregates 25 -> 15 after block 1, so block 2's
    # learner predicts a 15x15 matrix and physical edges no longer apply
    matrix, _, dot_path = export_topology(
        workspace / "run" / "model.ckpt",
        workspace / "data" / "test.manifest",
        2, 1, tmp_path / "t2",
    )
    assert matrix.shape == (15, 15)
    assert "dir=none" not in dot_path.read_text()


def test_export_error_cases(workspace):
    model, meta = load_checkpoint(workspace / "run" / "model.ckpt")
    layout = build_layout("ntu25")
    manifest = load_manifest(workspace / "data" / "test.manifest")
    x, y = load_dataset(manifest, model.config.frames, layout, "joint")
    with pytest.raises(ValueError, match="layer index"):
        class_average_adjacency(model, x, y, 0, 99)
    with pytest.raises(ValueError, match="no samples with class"):
        class_average_adjacency(model, x, y, 7, 1)


def full_forward_oracle(model, x, labels, class_id, layer_index, batch_size):
    """Class average of the matrices the chosen learner predicts inside
    complete ``model(x)`` forwards, first person only."""
    learner = model.blocks[layer_index - 1].learner
    captured = []
    original = learner.forward

    def spy(h):
        out = original(h)
        captured.append(out.data)
        return out

    learner.forward = spy
    chosen = np.flatnonzero(labels == class_id)
    total = None
    model.eval()
    try:
        for start in range(0, chosen.size, batch_size):
            idx = chosen[start : start + batch_size]
            with no_grad():
                model(Tensor(x[idx]))
            first = captured[-1].reshape(len(idx), x.shape[1], *captured[-1].shape[1:])[:, 0]
            summed = first.sum(axis=0, dtype=np.float64)
            total = summed if total is None else total + summed
    finally:
        del learner.forward
    assert len(captured) == -(-chosen.size // batch_size)
    return total / chosen.size


@pytest.mark.parametrize("layer", [1, 2])
def test_class_average_adjacency_matches_full_forward(workspace, layer):
    model, _ = load_checkpoint(workspace / "run" / "model.ckpt")
    rng = np.random.default_rng(21)
    x = rng.standard_normal((5, 2, 3, model.config.frames, 25)).astype(np.float32)
    labels = np.array([0, 1, 0, 0, 1])
    got = class_average_adjacency(model, x, labels, 0, layer, batch_size=2)
    want = full_forward_oracle(model, x, labels, 0, layer, batch_size=2)
    assert got.shape == ((25, 25) if layer == 1 else (15, 15))
    assert np.array_equal(got, want)


def test_export_without_learner_raises(workspace):
    model, _ = load_checkpoint(workspace / "run" / "model.ckpt")
    static_only = build_model(replace(model.config, topology="none"))
    x = np.zeros((2, 2, 3, model.config.frames, 25), dtype=np.float32)
    with pytest.raises(ValueError, match="no topology learner"):
        class_average_adjacency(static_only, x, np.array([0, 1]), 0, 1)


def test_dot_threshold_filters_learned_edges():
    matrix = np.zeros((3, 3))
    matrix[0, 1] = 0.9
    matrix[2, 0] = 0.41
    matrix[1, 1] = 0.2
    dot = format_dot(matrix, None, threshold=0.4)
    assert 'j0 -> j1 [label="0.90"' in dot
    assert 'j2 -> j0 [label="0.41"' in dot
    assert "0.20" not in dot
