#!/usr/bin/env python3
"""SHA-256 fingerprints of what a dyngcn checkout computes, and a compare mode.

    python tools/fingerprint.py TREE OUT.json      # digest the checkout at TREE
    python tools/fingerprint.py --compare A.json B.json

A change that claims unchanged bits fingerprints its parent's checkout and
its own, then compares the two files: ``--compare`` lists every digest that
differs or that one file lacks, and exits 1 if there is any.

The digests cover:
  - a ``synth_generate`` tree, file by file;
  - 3-epoch trainings of the acceptance-gate model (``context``,
    ``nonlocal`` and a ``context`` bone stream): ``model.ckpt``,
    ``metrics.txt`` and ``run.cfg``, written from relative paths;
  - the stdout of ``dyngcn eval`` at batch 64, 5 and 3 and of
    ``dyngcn ensemble``; both streams' and the fused logits of a joint and
    bone ensemble at batch 16 and 5;
  - one ``dyngcn export-topology`` (stdout, ``.txt``, ``.dot``);
  - ``dyngcn flops`` stdout and ``--kv`` for ``toy``, ``ntu-like`` and
    ``kinetics-like``, in the default, ``--with-cen`` and ``--without-cen``
    modes, at 1 and 2 persons; the stdout of ``demos/06_cost_accounting.py``;
  - the loss, input gradient and every gradient, parameter and buffer over
    3 ``NesterovSGD`` steps of the ntu-like preset at B=2 (2 persons in
    float32, 1 person in float64), at 1 and at 2 BLAS threads.

Each part runs in a child process that imports ``dyngcn`` from
``TREE/src`` in a scratch directory; the children run side by side, and the
script waits for every one of them in a ``finally``, killing any still
running, so none outlives it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STEP_THREADS = (1, 2)
GATE_MODEL = dict(layout="ntu25", n_classes=5, frames=24, channels=(16, 16, 32, 32),
                  strides=(1, 1, 2, 1), tc_kernel=5, aggregate_after=(2,))


def digest(value):
    """SHA-256 of text (as UTF-8), bytes, or an array's dtype, shape and bytes."""
    if isinstance(value, str):
        value = value.encode("utf-8")
    elif not isinstance(value, bytes):
        value = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    return hashlib.sha256(value).hexdigest()


def compare(a, b):
    """One line per key whose digest differs between ``a`` and ``b`` or that
    only one of them holds, in key order."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            lines.append(f"only in A: {key}")
        elif key not in a:
            lines.append(f"only in B: {key}")
        elif a[key] != b[key]:
            lines.append(f"differs: {key}")
    return lines


def run_children(commands):
    """Run ``(argv, cwd, env)`` commands side by side; waits for each, and
    kills and reaps any still running when one fails or the wait is cut."""
    children = []
    try:
        for argv, cwd, env in commands:
            children.append(subprocess.Popen(argv, cwd=cwd, env=env))
        for child, (argv, _, _) in zip(children, commands):
            if child.wait() != 0:
                raise RuntimeError(f"{' '.join(map(str, argv))} exited with {child.returncode}")
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()


def fingerprint(tree):
    """Every digest of the checkout at ``tree``, keyed by what it covers."""
    tree = Path(tree).resolve()
    parts = [("artifacts", 1)] + [("steps", threads) for threads in STEP_THREADS]
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as work:
        commands = []
        for kind, threads in parts:
            cwd = Path(work) / f"{kind}-{threads}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=str(tree / "src"))
            env.update({var: str(threads) for var in BLAS_THREAD_VARS})
            argv = [sys.executable, str(Path(__file__).resolve()), "--worker", kind,
                    str(tree), str(cwd / "digests.json")]
            commands.append((argv, cwd, env))
        run_children(commands)
        digests = {}
        for (kind, threads), (_, cwd, _) in zip(parts, commands):
            label = kind if kind == "artifacts" else f"{kind}/threads{threads}"
            found = json.loads((cwd / "digests.json").read_text(encoding="utf-8"))["digests"]
            digests.update({f"{label}/{key}": value for key, value in found.items()})
    return digests


# -- the child processes, run with TREE/src on the path --------------------


def run_cli(argv):
    """stdout of ``dyngcn`` run on ``argv``; raises if it fails."""
    from dyngcn import cli

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    if code != 0:
        raise RuntimeError(f"dyngcn {' '.join(map(str, argv))} exited with {code}: "
                           f"{err.getvalue()}")
    return out.getvalue()


def artifact_digests(tree):
    import runpy

    from dyngcn.config import RunConfig
    from dyngcn.data import SynthSpec, synth_generate
    from dyngcn.modality import ensemble_logits
    from dyngcn.model import ModelConfig
    from dyngcn.train import collect_logits, load_checkpoint_inputs, train

    digests = {}
    spec = SynthSpec(n_classes=5, samples_per_class=16, test_per_class=8, layout="ntu25",
                     frames=32, noise_sigma=0.05, seed=7)
    synth_generate("data", spec)
    for path in sorted(Path("data").rglob("*")):
        if path.is_file():
            digests[f"synth/{path.as_posix()}"] = digest(path.read_bytes())

    for name, topology, modality in (("context", "context", "joint"),
                                     ("nonlocal", "nonlocal", "joint"),
                                     ("bone", "context", "bone")):
        config = RunConfig(
            model=ModelConfig(**GATE_MODEL, topology=topology),
            train_manifest="data/train.manifest", test_manifest="data/test.manifest",
            out_dir=f"gate-{name}", modality=modality,
            lr=0.1, weight_decay=0.0004, batch_size=16, total_epochs=3, milestones=(),
            seed=0,
        )
        train(config)
        for file in ("model.ckpt", "metrics.txt", "run.cfg"):
            digests[f"gate/{name}/{file}"] = digest(Path(config.out_dir, file).read_bytes())

    manifest = "data/test.manifest"
    joint, bone = "gate-context/model.ckpt", "gate-bone/model.ckpt"
    for batch in (64, 5, 3):
        digests[f"eval/batch{batch}/stdout"] = digest(run_cli(
            ["eval", "--checkpoint", joint, "--manifest", manifest, "--batch-size", batch]))
    digests["ensemble/stdout"] = digest(run_cli(
        ["ensemble", "--checkpoints", joint, bone, "--manifest", manifest]))
    for batch in (16, 5):
        logits = []
        for i, checkpoint in enumerate((joint, bone)):
            model, _, x, _ = load_checkpoint_inputs(checkpoint, manifest)
            logits.append(collect_logits(model, x, batch))
            digests[f"ensemble/batch{batch}/stream{i}"] = digest(logits[-1])
        digests[f"ensemble/batch{batch}/fused"] = digest(ensemble_logits(logits))

    digests["export/stdout"] = digest(run_cli(
        ["export-topology", "--checkpoint", joint, "--manifest", manifest, "--layer", 1,
         "--class-id", 0, "--out", "export/topo"]))
    for suffix in (".txt", ".dot"):
        digests[f"export/topo{suffix}"] = digest(Path(f"export/topo{suffix}").read_bytes())

    for preset in ("toy", "ntu-like", "kinetics-like"):
        for mode in ("default", "with-cen", "without-cen"):
            for persons in (1, 2):
                key = f"flops/{preset}/{mode}/persons{persons}"
                kv = Path(f"flops-{preset}-{mode}-{persons}.kv")
                flags = [] if mode == "default" else [f"--{mode}"]
                digests[f"{key}/stdout"] = digest(run_cli(
                    ["flops", "--preset", preset, *flags, "--persons", persons, "--kv", kv]))
                digests[f"{key}/kv"] = digest(kv.read_bytes())

    out = StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(Path(tree) / "demos" / "06_cost_accounting.py"), run_name="__main__")
    digests["demo06/stdout"] = digest(out.getvalue())
    return digests


def step_digests(tree):
    import numpy as np

    from dyngcn.config import model_preset
    from dyngcn.model import build_model
    from dyngcn.optim import NesterovSGD
    from dyngcn.tensor import Tensor, softmax_cross_entropy

    digests = {}
    config = model_preset("ntu-like")
    for case, persons, dtype in (("float32-2persons", 2, np.float32),
                                 ("float64-1person", 1, np.float64)):
        model = build_model(config, seed=0, dtype=dtype)
        trainable = [(name, p) for name, p in model.named_parameters() if p.requires_grad]
        optimizer = NesterovSGD([p for _, p in trainable], 0.1, weight_decay=0.0004)
        rng = np.random.default_rng(11)
        for step in range(1, 4):
            key = f"ntu-like/{case}/step{step}"
            x = Tensor(rng.standard_normal((2, persons, 3, config.frames, 25)).astype(dtype),
                       requires_grad=True)
            loss = softmax_cross_entropy(model(x), rng.integers(0, config.n_classes, 2))
            loss.backward()
            digests[f"{key}/loss"] = digest(loss.data)
            digests[f"{key}/input.grad"] = digest(x.grad)
            for name, p in trainable:
                digests[f"{key}/grad/{name}"] = digest(p.grad)
            optimizer.step()
            for name, p in model.named_parameters():
                digests[f"{key}/param/{name}"] = digest(p.data)
            for name, buffer in model.named_buffers():
                digests[f"{key}/buffer/{name}"] = digest(buffer)
    return digests


WORKERS = {"artifacts": artifact_digests, "steps": step_digests}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Write SHA-256 digests of what a dyngcn checkout computes, "
                    "or compare two digest files.")
    parser.add_argument("tree", nargs="?", help="the checkout to digest")
    parser.add_argument("out", nargs="?", help="the digest file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list every digest that differs between two digest files")
    parser.add_argument("--worker", choices=WORKERS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        if args.tree or args.worker:
            parser.error("--compare takes only its two digest files")
        a, b = (json.loads(Path(p).read_text(encoding="utf-8"))["digests"]
                for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(a.keys() | b.keys())} digests differ"]))
        return 1 if lines else 0
    if not (args.tree and args.out):
        parser.error("give TREE and OUT, or --compare A B")
    if args.worker:
        digests = WORKERS[args.worker](args.tree)
    else:
        digests = fingerprint(args.tree)
    text = json.dumps({"tree": str(args.tree), "digests": digests}, indent=1, sort_keys=True)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    if not args.worker:
        print(f"wrote {len(digests)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
