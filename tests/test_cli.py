import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dyngcn import cli, export
from dyngcn.checkpoint import load_checkpoint
from dyngcn.config import RunConfig, model_preset, run_preset
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


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_non_finite_noise(tmp_path, capsys, value):
    code = cli.main(["synth", "--out", str(tmp_path / "d"), "--noise", value])
    assert code == 2
    assert capsys.readouterr().err == f"error: noise_sigma={value} must be finite\n"
    assert not (tmp_path / "d").exists()


def test_synth_refuses_more_classes_than_a_label_holds_before_writing(tmp_path, capsys):
    code = cli.main(["synth", "--out", str(tmp_path / "d"), "--classes", "65537",
                     "--train-per-class", "1", "--test-per-class", "0", "--frames", "2"])
    assert code == 2
    assert capsys.readouterr().err == ("error: n_classes=65537 is above 65536: a binary "
                                       "sequence's label is at most 65535\n")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_is_refused_naming_the_key(workspace, tmp_path, capsys, command):
    out = tmp_path / "d"
    argv = {"synth": ["synth", "--out", str(out)],
            "train": ["train", "--preset", "smoke", "--out-dir", str(out),
                      "--train-manifest", str(workspace / "data" / "train.manifest")]}[command]
    assert cli.main(argv + ["--seed", "-1"]) == 2
    assert re.fullmatch(r"error: (overrides \[.*\]: )?seed=-1 must be non-negative\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_train_refuses_a_decay_that_would_climb_the_loss(tmp_path, capsys):
    out = tmp_path / "d"
    code = cli.main(["train", "--preset", "smoke", "--out-dir", str(out),
                     "--set", "decay=-0.1"])
    assert code == 2
    assert re.fullmatch(r"error: overrides \['decay=-0\.1', .*\]: decay must be positive\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_train_refuses_a_milestone_that_leaves_the_lr_unused(tmp_path, capsys):
    out = tmp_path / "d"
    code = cli.main(["train", "--preset", "smoke", "--out-dir", str(out),
                     "--set", "milestones=1"])
    assert code == 2
    assert re.fullmatch(r"error: overrides \['milestones=1', .*\]: milestones must be at "
                        r"least 2, got \(1,\)\n", capsys.readouterr().err)
    assert not out.exists()


def test_train_from_a_config_file(workspace, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    run_preset("smoke").with_overrides([f"out_dir={tmp_path / 'run'}",
                                        "total_epochs=1"]).save(config)
    assert cli.main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("error: no training manifest; pass --train-manifest "
                                       "or set it in the config\n")
    code = cli.main(["train", "--config", str(config),
                     "--train-manifest", str(workspace / "data" / "train.manifest")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("trained 1 epochs; final train loss ")
    assert "test top1" not in out
    assert (tmp_path / "run" / "model.ckpt").exists()


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


@pytest.mark.parametrize("command", ["eval", "ensemble"])
@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_eval_batch_size_below_one_is_refused(workspace, capsys, command, batch_size):
    checkpoint = str(workspace / "run" / "model.ckpt")
    code = cli.main([command, "--checkpoint" if command == "eval" else "--checkpoints",
                     checkpoint, "--manifest", str(workspace / "data" / "test.manifest"),
                     "--batch-size", batch_size])
    assert code == 2
    assert capsys.readouterr().err == f"error: batch_size must be at least 1, got {batch_size}\n"


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


def flops_config(tmp_path, **model_overrides):
    path = tmp_path / "model.cfg"
    RunConfig(model=replace(model_preset("toy"), **model_overrides)).save(path)
    return str(path)


TOY_WITHOUT_LEARNER = """cost report: ntu25 without learner
----------------------------------
block1.static         3x4x25  4x4x25  52,200
block1.learner        3x4x25   25x25       0
block1.dynamic        3x4x25  4x4x25       0
block1.tc             4x4x25  4x4x25   9,600
block1.shortcut       3x4x25  4x4x25   2,400
classifier                 4       2      16
total                                 64,216
minor ops (excluded)                   3,102

"""


def test_flops_prints_a_learnerless_config_as_both_reports(tmp_path, capsys):
    # the baseline of a topology=none config is the config itself
    assert cli.main(["flops", "--config", flops_config(tmp_path, topology="none")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == 2 * TOY_WITHOUT_LEARNER + (
        "overhead: ntu25 without learner vs ntu25 without learner\n"
        "--------------------------------------------------------\n"
        "total                    64,216          64,216  +0.0000\n"
    )


def test_flops_lambda_zero_config_has_no_learnerless_baseline(tmp_path, capsys):
    # without its learner a lambda=0 config has no active route, which the
    # model config refuses; --with-cen still prices the config
    config = flops_config(tmp_path, lambda_static=0.0)
    for mode in ([], ["--without-cen"]):
        assert cli.main(["flops", "--config", config] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: lambda_static=0 with topology 'none' leaves no "
                                "active branch\n")
    assert cli.main(["flops", "--config", config, "--with-cen"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cost report: ntu25 with learner\n")
    assert "block1.static         3x4x25  4x4x25       0\n" in out
    assert "total                                 61,466\n" in out


def test_flops_two_persons_price_the_classifier_once(capsys):
    assert cli.main(["flops", "--preset", "ntu-like", "--with-cen", "--persons", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^classifier +256 +60 +30,720$", out, re.M)
    assert re.search(r"^total +4,853,014,704$", out, re.M)


def test_flops_refuses_no_persons(capsys):
    assert cli.main(["flops", "--preset", "toy", "--persons", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: persons must be >= 1\n" and captured.out == ""


def test_error_line_and_exit_code(workspace, capsys):
    code = cli.main(["eval", "--checkpoint", str(workspace / "missing.ckpt"),
                     "--manifest", str(workspace / "data" / "test.manifest")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def os_error_argv(workspace, tmp_path, case):
    """argv for a command whose path is a directory where a file is wanted,
    or a file where a directory is wanted; and that path."""
    data = workspace / "data"
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    if case == "eval --checkpoint <dir>":
        return ["eval", "--checkpoint", str(tmp_path), "--manifest",
                str(data / "test.manifest")], tmp_path
    if case == "train --train-manifest <dir>":
        return ["train", "--preset", "smoke", "--train-manifest", str(tmp_path),
                "--out-dir", str(tmp_path / "run")], tmp_path
    if case == "train --out-dir <file>":
        return ["train", "--preset", "smoke", "--train-manifest", str(data / "train.manifest"),
                "--out-dir", str(a_file)], a_file
    return ["synth", "--out", str(a_file)], a_file


@pytest.mark.parametrize("case", ["eval --checkpoint <dir>", "train --train-manifest <dir>",
                                  "train --out-dir <file>", "synth --out <file>"])
def test_os_error_exits_2_naming_the_path(workspace, tmp_path, capsys, case):
    argv, path = os_error_argv(workspace, tmp_path, case)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1


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
    matrix = np.loadtxt(prefix.with_name("class0.txt"))
    assert matrix.shape == (25, 25)
    norms = np.linalg.norm(matrix, axis=1)
    assert norms.max() <= 1.0 + 1e-5  # averages of unit-norm rows
    dot = prefix.with_name("class0.dot").read_text()
    assert dot.startswith("digraph")
    assert "dir=none" in dot  # physical skeleton edges present


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_export_refuses_a_non_finite_threshold_before_reading(workspace, tmp_path, capsys,
                                                              monkeypatch, value):
    reads = []
    original = export.load_checkpoint_inputs

    def spy(*args):
        reads.append(args)
        return original(*args)

    monkeypatch.setattr(export, "load_checkpoint_inputs", spy)
    code = cli.main(["export-topology", "--checkpoint", str(workspace / "run" / "model.ckpt"),
                     "--manifest", str(workspace / "data" / "test.manifest"),
                     "--layer", "1", "--class-id", "0", f"--threshold={value}",
                     "--out", str(tmp_path / "viz" / "t")])
    assert code == 2
    assert capsys.readouterr().err == f"error: threshold={float(value)!r} must be finite\n"
    assert reads == [] and list(tmp_path.iterdir()) == []


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


def test_export_appends_its_suffixes_to_a_dotted_prefix(workspace, tmp_path):
    written = {}
    for layer in (1, 2):
        matrix, txt_path, dot_path = export_topology(
            workspace / "run" / "model.ckpt", workspace / "data" / "test.manifest",
            layer, 0, tmp_path / f"topo.layer{layer}")
        written[layer] = (matrix, txt_path, dot_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "topo.layer1.dot", "topo.layer1.txt", "topo.layer2.dot", "topo.layer2.txt"]
    for layer, (matrix, txt_path, dot_path) in written.items():
        assert txt_path == tmp_path / f"topo.layer{layer}.txt"
        assert dot_path == tmp_path / f"topo.layer{layer}.dot"
        # the second export left the first one's files alone
        assert np.loadtxt(txt_path).shape == matrix.shape == {1: (25, 25), 2: (15, 15)}[layer]


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
def test_class_average_adjacency_matches_full_forward(workspace, monkeypatch, layer):
    """The average is the same bits whatever the export's batch size, and
    they are the learner's output inside one complete forward."""
    model, _ = load_checkpoint(workspace / "run" / "model.ckpt")
    rng = np.random.default_rng(21)
    x = rng.standard_normal((7, 2, 3, model.config.frames, 25)).astype(np.float32)
    labels = np.array([0, 1, 0, 0, 1, 0, 0])
    batches = []
    input_stage = model.input_stage

    def counted(t):
        batches.append(len(t.data))
        return input_stage(t)

    monkeypatch.setattr(model, "input_stage", counted)
    got = []
    for batch_size in (1, 2, 64):
        monkeypatch.setattr(export, "EVAL_BATCH_SIZE", batch_size)
        got.append(class_average_adjacency(model, x, labels, 0, layer))
    monkeypatch.undo()
    # the five class-0 samples, in batches of 1, 2 and 64
    assert batches == [1] * 5 + [2, 2, 1] + [5]
    want = full_forward_oracle(model, x, labels, 0, layer, batch_size=len(x))
    assert want.shape == ((25, 25) if layer == 1 else (15, 15))
    for matrix in got:
        assert matrix.dtype == want.dtype and matrix.tobytes() == want.tobytes()


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


def test_dot_label_escapes_the_class_name():
    dot = format_dot(np.zeros((2, 2)), None, class_name='say"hi\\n')
    assert '  label="say\\"hi\\\\n";' in dot.splitlines()


# Writes a manifest, a run.cfg and a topology export that hold non-ASCII text
# and reads each back with its own reader.  The script itself is ASCII, so a
# C-locale interpreter takes it on its command line.
LOCALE_PROBE = r"""
import sys
from pathlib import Path
import numpy as np
from dyngcn.checkpoint import save_checkpoint
from dyngcn.config import RunConfig, model_preset
from dyngcn.data import DatasetManifest, SkeletonSequence, load_manifest, save_manifest
from dyngcn.data import save_sequence
from dyngcn.export import export_topology, format_dot, format_matrix
from dyngcn.model import build_model
from dyngcn.skeleton import read_utf8

root = Path(sys.argv[1])
names = ["caf\u00e9", "th\u00e9"]
rng = np.random.default_rng(0)
entries = []
for label in (0, 1):
    seq = SkeletonSequence(rng.standard_normal((4, 1, 25, 3)), label, "ntu25", f"s{label}")
    entries.append((save_sequence(root / f"s{label}.skl", seq).name, label))
manifest = save_manifest(root / "data.manifest", DatasetManifest(entries, names, "ntu25", "test"))
assert load_manifest(manifest).class_names == names
config = RunConfig(model=model_preset("toy"), train_manifest="donn\u00e9es/train.manifest")
assert RunConfig.load(config.save(root / "run.cfg")) == config
model = build_model(config.model, seed=0)
checkpoint = save_checkpoint(root / "model.ckpt", model, {"class_names": names})
matrix, txt, dot = export_topology(checkpoint, manifest, 1, 0, root / "topo")
assert read_utf8(txt) == format_matrix(matrix)
assert read_utf8(dot) == format_dot(matrix, model.layout, class_name=names[0])
"""


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, Python's own text files use
    ASCII; ``subprocess.run`` waits for the probe and kills it if it overruns."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", LOCALE_PROBE, str(tmp_path)], env=env,
                   capture_output=True, text=True, timeout=120, check=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.manifest", "model.ckpt", "run.cfg", "s0.skl", "s1.skl", "topo.dot", "topo.txt"]
