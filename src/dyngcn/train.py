"""Training loop, evaluation, and logit-sum ensembling over checkpoints."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_manifest, load_sequence, normalize_coords, resize_sequence
from .modality import apply_modality, ensemble_logits
from .model import build_model
from .optim import NesterovSGD
from .skeleton import build_layout
from .tensor import Tensor, no_grad, softmax_cross_entropy


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
        Path(path).write_text(self.format())
        return path

    @classmethod
    def parse(cls, text):
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            epoch, loss, acc, top1, top5, lr = line.split()
            log.append(EpochRecord(int(epoch), float(loss), float(acc),
                                   float(top1), float(top5), float(lr)))
        return log

    @classmethod
    def load(cls, path):
        return cls.parse(Path(path).read_text())


@dataclass
class EvalResult:
    top1: float
    top5: float
    confusion: np.ndarray
    count: int


@dataclass
class TrainResult:
    model: object
    log: MetricsLog
    checkpoint_path: Path
    metrics_path: Path
    class_names: list = field(default_factory=list)


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
    """Materialize a manifest as ((S, M, C, T, N) float32, (S,) labels)."""
    arrays = []
    labels = []
    for rel, label in manifest.entries:
        path = manifest.resolve(rel)
        seq = load_sequence(path)
        if seq.joints != layout.n_joints:
            raise ValueError(
                f"{rel}: sequence has {seq.joints} joints, layout "
                f"{layout.name!r} defines {layout.n_joints}"
            )
        seq = resize_sequence(seq, frames)   # a convex blend of finite frames
        with _overflow_located(path, "centring"):
            seq = normalize_coords(seq, layout)
        with _overflow_located(path, f"the {modality} transform"):
            coords = seq.to_model_input()             # (M, C, T, N)
            arrays.append(apply_modality(coords, modality, layout).astype(np.float32))
        labels.append(label)
    persons = max(arr.shape[0] for arr in arrays)
    stacked = np.zeros((len(arrays),) + (persons,) + arrays[0].shape[1:], dtype=np.float32)
    for i, arr in enumerate(arrays):
        stacked[i, : arr.shape[0]] = arr
    return stacked, np.asarray(labels, dtype=np.int64)


def _batch_slices(count, batch_size):
    return [slice(start, min(start + batch_size, count))
            for start in range(0, count, batch_size)]


def collect_logits(model, x, batch_size=64):
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
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for truth, pred in zip(labels, top1_pred):
        confusion[truth, pred] += 1
    return EvalResult(top1, top5, confusion, len(labels))


def evaluate_arrays(model, x, labels, batch_size=64):
    logits = collect_logits(model, x, batch_size)
    return accuracy_from_logits(logits, labels, model.config.n_classes)


def train(config):
    """Run the configured schedule; writes checkpoint + metrics, returns both."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    layout = build_layout(config.model.layout)

    train_manifest = load_manifest(config.train_manifest)
    x_train, y_train = load_dataset(train_manifest, config.model.frames, layout,
                                    config.modality)
    if y_train.max() >= config.model.n_classes:
        raise ValueError(
            f"dataset labels run to {y_train.max()}, model has "
            f"{config.model.n_classes} classes"
        )
    eval_data = None
    if config.test_manifest:
        test_manifest = load_manifest(config.test_manifest)
        eval_data = load_dataset(test_manifest, config.model.frames, layout,
                                 config.modality)

    model = build_model(config.model, seed=config.seed)
    trainable = [(name, p) for name, p in model.named_parameters() if p.requires_grad]
    optimizer = NesterovSGD([p for _, p in trainable], config.lr, momentum=config.momentum,
                            weight_decay=config.weight_decay, nesterov=config.nesterov)
    rng = np.random.default_rng(config.seed)
    log = MetricsLog()

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

    meta = {
        "modality": config.modality,
        "layout": layout.name,
        "seed": config.seed,
        "epochs": config.total_epochs,
        "class_names": list(train_manifest.class_names),
    }
    checkpoint_path = save_checkpoint(out_dir / "model.ckpt", model, meta)
    metrics_path = log.save(out_dir / "metrics.txt")
    config.save(out_dir / "run.cfg")
    return TrainResult(model, log, checkpoint_path, metrics_path,
                       list(train_manifest.class_names))


def load_checkpoint_inputs(checkpoint_path, manifest_path):
    """Load a checkpoint and a manifest's data as the checkpoint reads it:
    its layout, frame count and modality; returns (model, meta, x, labels)."""
    model, meta = load_checkpoint(checkpoint_path)
    manifest = load_manifest(manifest_path)
    layout = model.layout
    if manifest.layout_name and manifest.layout_name != layout.name:
        raise ValueError(
            f"{manifest_path}: manifest declares layout {manifest.layout_name!r}, "
            f"checkpoint {checkpoint_path} was trained on {layout.name!r}"
        )
    x, labels = load_dataset(manifest, model.config.frames, layout,
                             meta.get("modality", "joint"))
    return model, meta, x, labels


def evaluate_checkpoint(checkpoint_path, manifest_path, batch_size=64):
    model, _, x, y = load_checkpoint_inputs(checkpoint_path, manifest_path)
    return evaluate_arrays(model, x, y, batch_size=batch_size)


def ensemble_checkpoints(checkpoint_paths, manifest_path, batch_size=64):
    """Sum pre-softmax logits across streams; returns (per-stream, fused)."""
    per_stream = []
    stream_logits = []
    n_classes = None
    for path in checkpoint_paths:
        model, _, x, y = load_checkpoint_inputs(path, manifest_path)
        if n_classes is None:
            n_classes = model.config.n_classes
        elif model.config.n_classes != n_classes:
            raise ValueError(
                f"{path}: checkpoint has {model.config.n_classes} classes, "
                f"others have {n_classes}"
            )
        logits = collect_logits(model, x, batch_size)
        stream_logits.append(logits)
        per_stream.append(accuracy_from_logits(logits, y, n_classes))
    fused = accuracy_from_logits(ensemble_logits(stream_logits), y, n_classes)
    return per_stream, fused
