"""Training loop, evaluation, and logit-sum ensembling over checkpoints."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_manifest, load_sequence, normalize_coords, resize_sequence
from .modality import apply_modality, ensemble_logits
from .model import build_model
from .optim import NesterovSGD
from .skeleton import read_utf8, write_file
from .tensor import Tensor, free_scratch, no_grad, softmax_cross_entropy

# Batch size of eval-mode forwards outside training (eval, ensemble, export).
EVAL_BATCH_SIZE = 64


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    top1: float
    top5: float
    lr: float
    wall_time: float = 0.0


class MetricsLog:
    """Per-epoch records; the text form deliberately omits wall time so
    identical-seed runs write identical bytes."""

    HEADER = "# epoch train_loss train_acc top1 top5 lr"

    def __init__(self):
        self.records = []

    def append(self, record):
        if self.records and record.epoch <= self.records[-1].epoch:
            raise ValueError(
                f"epoch {record.epoch} does not advance past {self.records[-1].epoch}"
            )
        self.records.append(record)

    def format(self):
        lines = [self.HEADER]
        for r in self.records:
            lines.append(
                f"{r.epoch} {r.train_loss:.6f} {r.train_acc:.4f} "
                f"{r.top1:.4f} {r.top5:.4f} {r.lr:.6g}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path):
        return write_file(path, self.format())

    @classmethod
    def parse(cls, text, source="<metrics>"):
        """Read the text form back; an error names ``source`` and the line."""
        names = cls.HEADER[1:].split()
        log = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{source}: line {lineno}"
            tokens = line.split()
            if len(tokens) != len(names):
                raise ValueError(f"{where}: expected {len(names)} fields "
                                 f"({' '.join(names)}), got {len(tokens)}")
            values = []
            for name, token in zip(names, tokens):
                try:
                    values.append(int(token) if name == "epoch" else float(token))
                except ValueError:
                    raise ValueError(f"{where}: bad {name} {token!r}") from None
            try:
                log.append(EpochRecord(*values))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return log

    @classmethod
    def load(cls, path):
        return cls.parse(read_utf8(path), source=str(path))


@dataclass
class EvalResult:
    top1: float
    top5: float
    count: int


@dataclass
class TrainResult:
    model: object
    log: MetricsLog
    checkpoint_path: Path
    metrics_path: Path


@contextmanager
def _overflow_located(path, stage):
    """Turn a float overflow in the block into a ValueError naming the file
    and the stage, in place of a numpy warning and a non-finite result."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{path}: {stage} overflows float32 ({exc})") from None


def load_dataset(manifest, frames, layout, modality):
    """Materialize a manifest as ((S, M, C, T, N) float32, (S,) labels).

    Each sequence's model input goes straight into its slot of one array,
    which grows once if a file has more persons than the first."""
    x = None
    for i, (rel, _) in enumerate(manifest.entries):
        path = manifest.resolve(rel)
        seq = load_sequence(path)
        if seq.layout_name and seq.layout_name != layout.name:
            raise ValueError(f"{path}: sequence declares layout {seq.layout_name!r}, "
                             f"expected {layout.name!r}")
        _, _, joints, coords = seq.data.shape
        if joints != layout.n_joints:
            raise ValueError(
                f"{path}: sequence has {joints} joints, layout "
                f"{layout.name!r} defines {layout.n_joints}"
            )
        if layout.score_channel is not None and coords <= layout.score_channel:
            raise ValueError(
                f"{path}: sequence has {coords} coordinates, layout {layout.name!r} "
                f"puts its score in channel {layout.score_channel}"
            )
        if x is not None and coords != x.shape[2]:
            raise ValueError(
                f"{path}: sequence has {coords} coordinates, "
                f"{manifest.resolve(manifest.entries[0][0])} has {x.shape[2]}"
            )
        data = resize_sequence(seq.data, frames)   # a convex blend of finite frames
        with _overflow_located(path, "centring"):
            data = normalize_coords(data, layout)
        with _overflow_located(path, f"the {modality} transform"):
            sample = apply_modality(data.transpose(1, 3, 0, 2), modality, layout)   # (M, C, T, N)
        if x is None or len(sample) > x.shape[1]:
            grown = np.zeros((len(manifest.entries),) + sample.shape, dtype=np.float32)
            if x is not None:
                grown[:, : x.shape[1]] = x
            x = grown
        x[i, : len(sample)] = sample
    return x, np.array([label for _, label in manifest.entries], dtype=np.int64)


def _batch_slices(count, batch_size):
    return [slice(start, min(start + batch_size, count))
            for start in range(0, count, batch_size)]


def collect_logits(model, x, batch_size=EVAL_BATCH_SIZE):
    model.eval()
    chunks = []
    with no_grad():
        for sl in _batch_slices(x.shape[0], batch_size):
            chunks.append(model(Tensor(x[sl])).data)
    return np.concatenate(chunks, axis=0)


def accuracy_from_logits(logits, labels, n_classes):
    top1_pred = logits.argmax(axis=1)
    top1 = float((top1_pred == labels).mean())
    k = min(5, n_classes)
    topk = np.argsort(-logits, axis=1)[:, :k]
    top5 = float((topk == labels[:, None]).any(axis=1).mean())
    return EvalResult(top1, top5, len(labels))


def evaluate_arrays(model, x, labels, batch_size=EVAL_BATCH_SIZE):
    logits = collect_logits(model, x, batch_size)
    return accuracy_from_logits(logits, labels, model.config.n_classes)


def load_model_inputs(model, manifest_path, modality, built_on, classes):
    """Read a manifest's sequences as ``model`` takes them: its layout and
    frame count; returns (manifest, (S, M, C, T, N) float32, (S,) labels).

    Before any sequence file is read, it refuses a listed file that does
    not exist, a declared layout other than the model's, an empty manifest,
    a label the model has no class for and a class table other than the
    model's; after, coordinates that are not the model's input channels.
    ``built_on`` says what holds the model's layout, as in "checkpoint
    c.ckpt was trained on".  ``classes`` is the model's class names and what
    holds them, as in (names, "train manifest t.manifest declares"), or None
    where nothing records them.
    """
    manifest = load_manifest(manifest_path)
    for target in (manifest.resolve(rel) for rel, _ in manifest.entries):
        if not target.exists():
            raise FileNotFoundError(f"{manifest_path}: listed file missing: {target}")
    layout, config = model.layout, model.config
    if manifest.layout_name and manifest.layout_name != layout.name:
        raise ValueError(f"{manifest_path}: manifest declares layout "
                         f"{manifest.layout_name!r}, {built_on} {layout.name!r}")
    if not manifest.entries:
        raise ValueError(f"{manifest_path}: manifest lists no sequences")
    for rel, label in manifest.entries:
        if label >= config.n_classes:
            raise ValueError(f"{manifest_path}: entry {rel!r} has label {label}, "
                             f"the model has {config.n_classes} classes")
    if classes is not None and manifest.class_names != classes[0]:
        raise ValueError(f"{manifest_path}: manifest declares classes "
                         f"{manifest.class_names}, {classes[1]} {classes[0]}")
    x, labels = load_dataset(manifest, config.frames, layout, modality)
    if x.shape[2] != config.in_channels:
        raise ValueError(f"{manifest_path}: sequences have {x.shape[2]} coordinates, "
                         f"the model takes {config.in_channels} input channels")
    return manifest, x, labels


def train(config):
    """Run the configured schedule; writes checkpoint + metrics, returns both."""
    if not config.train_manifest:
        raise ValueError("no training manifest; pass --train-manifest or set it in the config")
    model = build_model(config.model, seed=config.seed)
    train_manifest, x_train, y_train = load_model_inputs(
        model, config.train_manifest, config.modality, "model.layout is", None)
    eval_data = None
    if config.test_manifest:
        classes = (train_manifest.class_names,
                   f"train manifest {config.train_manifest} declares")
        eval_data = load_model_inputs(
            model, config.test_manifest, config.modality, "model.layout is", classes)[1:]
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trainable = [(name, p) for name, p in model.named_parameters() if p.requires_grad]
    optimizer = NesterovSGD([p for _, p in trainable], config.lr, momentum=config.momentum,
                            weight_decay=config.weight_decay, nesterov=config.nesterov)
    rng = np.random.default_rng(config.seed)
    log = MetricsLog()

    # The run's backward scratch arena ends with it, also when the run
    # raises.  An arena kept for the next run would sit below that run's
    # graph in the heap, and glibc would then hand the freed graph back to
    # the kernel after each step, to be faulted in again on the next.  One
    # allocated in a run's first backward sits above its graph, and the
    # freed graph stays in the process.
    try:
        for epoch in range(1, config.total_epochs + 1):
            started = time.perf_counter()
            lr = optimizer.set_epoch(epoch, config.milestones, config.decay)
            model.train()
            order = rng.permutation(len(y_train))
            loss_sum = 0.0
            correct = 0
            for batch_index, sl in enumerate(_batch_slices(len(order), config.batch_size)):
                idx = order[sl]
                logits = model(Tensor(x_train[idx]))
                loss = softmax_cross_entropy(logits, y_train[idx])
                value = float(loss.data)
                if not np.isfinite(value):
                    raise RuntimeError(
                        f"non-finite loss {value} at epoch {epoch}, batch {batch_index}; "
                        f"lower the learning rate or check the data"
                    )
                loss.backward()
                if epoch == 1 and batch_index == 0:
                    missing = [name for name, p in trainable if p.grad is None]
                    if missing:
                        raise RuntimeError(
                            f"trainable parameters got no gradient from the first batch: "
                            f"{', '.join(missing)}"
                        )
                optimizer.step()
                loss_sum += value * len(idx)
                correct += int((logits.data.argmax(axis=1) == y_train[idx]).sum())

            if eval_data is not None:
                result = evaluate_arrays(model, *eval_data, batch_size=config.batch_size)
                top1, top5 = result.top1, result.top5
            else:
                top1 = top5 = float("nan")
            log.append(EpochRecord(epoch, loss_sum / len(y_train), correct / len(y_train),
                                   top1, top5, lr, time.perf_counter() - started))
    finally:
        free_scratch()

    meta = {
        "modality": config.modality,
        "layout": model.layout.name,
        "seed": config.seed,
        "epochs": config.total_epochs,
        "class_names": list(train_manifest.class_names),
    }
    checkpoint_path = save_checkpoint(out_dir / "model.ckpt", model, meta)
    metrics_path = log.save(out_dir / "metrics.txt")
    config.save(out_dir / "run.cfg")
    return TrainResult(model, log, checkpoint_path, metrics_path)


def load_checkpoint_inputs(checkpoint_path, manifest_path):
    """Load a checkpoint and a manifest's data as the checkpoint reads it:
    its layout, frame count and modality; returns (model, meta, x, labels)."""
    model, meta = load_checkpoint(checkpoint_path)
    built_on = f"checkpoint {checkpoint_path} was trained on"
    classes = (meta["class_names"], built_on) if "class_names" in meta else None
    _, x, labels = load_model_inputs(model, manifest_path, meta["modality"], built_on, classes)
    return model, meta, x, labels


def _stream_logits(checkpoint_path, manifest_path, batch_size, n_classes):
    """One stream's logits, labels and class count.  Its model and inputs
    are freed on return, before the next stream's checkpoint is read."""
    model, _, x, labels = load_checkpoint_inputs(checkpoint_path, manifest_path)
    if n_classes is not None and model.config.n_classes != n_classes:
        raise ValueError(
            f"{checkpoint_path}: checkpoint has {model.config.n_classes} classes, "
            f"others have {n_classes}"
        )
    return collect_logits(model, x, batch_size), labels, model.config.n_classes


def ensemble_checkpoints(checkpoint_paths, manifest_path, batch_size=EVAL_BATCH_SIZE):
    """Sum pre-softmax logits across streams; returns (per-stream, fused).
    One checkpoint is the one-stream case: what ``dyngcn eval`` runs."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if not checkpoint_paths:
        raise ValueError("an ensemble needs at least one checkpoint")
    per_stream = []
    stream_logits = []
    n_classes = None
    for path in checkpoint_paths:
        logits, y, n_classes = _stream_logits(path, manifest_path, batch_size, n_classes)
        stream_logits.append(logits)
        per_stream.append(accuracy_from_logits(logits, y, n_classes))
    fused = accuracy_from_logits(ensemble_logits(stream_logits), y, n_classes)
    return per_stream, fused
